package repro.core

import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

/** Thread-pool parallel-for substrate.
  *
  * The paper's implementation uses ParlayLib's fork-join primitives on a
  * 48-core machine; the self-relative-speedup experiment (Fig. 4 / bench
  * T2) needs an explicit, per-call thread-count knob, which Scala's global
  * parallel collections do not give us. `Par` runs index-range loops on a
  * dedicated fixed pool of `threads` workers with block partitioning plus
  * work-stealing via a shared atomic chunk counter.
  *
  * All methods are synchronous: they return only after every index has
  * been processed, so caller-visible writes by the body are safely
  * published (pool handoff provides the happens-before edges). As an
  * `Exec`, `fillRows` writes straight into `out` and `share` is the identity.
  */
final class Par(val threads: Int) extends Exec with AutoCloseable {
  require(threads >= 1, s"threads must be >= 1, got $threads")

  private val pool: ExecutorService =
    if (threads == 1) null else Executors.newFixedThreadPool(threads)

  /** Parallel `for (i <- 0 until n) body(i)` with dynamic chunking. An
    * exception from `body` reaches the caller as thrown, at any thread count.
    */
  def parFor(n: Int, grain: Int = 1)(body: Int => Unit): Unit = {
    if (n <= 0) return
    if (threads == 1 || n <= grain) {
      var i = 0; while (i < n) { body(i); i += 1 }
      return
    }
    val chunk   = math.max(grain, n / (threads * 8) + 1)
    val nChunks = (n + chunk - 1) / chunk
    val next    = new AtomicInteger(0)
    val tasks   = new java.util.ArrayList[Callable[Unit]](threads)
    var t = 0
    while (t < threads) {
      tasks.add { () =>
        var c = next.getAndIncrement()
        while (c < nChunks) {
          val lo = c * chunk
          val hi = math.min(n, lo + chunk)
          var i = lo; while (i < hi) { body(i); i += 1 }
          c = next.getAndIncrement()
        }
      }
      t += 1
    }
    val futures = pool.invokeAll(tasks)
    // rethrow a worker's own exception, as the one-thread loop throws it
    val it = futures.iterator()
    while (it.hasNext)
      try it.next().get()
      catch { case e: ExecutionException if e.getCause != null => throw e.getCause }
  }

  /** Parallel map over 0 until n into a fresh array. */
  def parMap[A: reflect.ClassTag](n: Int, grain: Int = 1)(f: Int => A): Array[A] = {
    val out = new Array[A](n)
    parFor(n, grain)(i => out(i) = f(i))
    out
  }

  def local: Par = this

  def map[A: reflect.ClassTag, B: reflect.ClassTag](items: Array[A], grain: Int)(f: A => B): Array[B] =
    parMap(items.length, grain)(i => f(items(i)))

  def fillRows(out: Array[Double], width: Int, tasks: Int)(rows: Int => (Int, Int))
              (write: (Int, Array[Double], Int) => Unit)(after: Int => Unit): Unit =
    parFor(tasks) { b => write(b, out, 0); after(b) }

  def share[A: reflect.ClassTag, R](x: A)(body: (() => A) => R): R = body(() => x)

  override def close(): Unit =
    if (pool != null) { pool.shutdown(); pool.awaitTermination(10, TimeUnit.SECONDS); () }
}

object Par {
  /** Run `f` with a pool of `threads` workers, closing the pool after. */
  def withThreads[A](threads: Int)(f: Par => A): A = {
    val p = new Par(threads)
    try f(p) finally p.close()
  }

  /** A Par over all available processors (for non-sweep callers). */
  def default[A](f: Par => A): A = withThreads(Runtime.getRuntime.availableProcessors())(f)
}
