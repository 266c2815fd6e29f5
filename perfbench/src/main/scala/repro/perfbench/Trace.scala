package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Process-level probes: CPU time, GC time and count, live heap. */
object Probe {
  private val os   = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs  = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heap = ManagementFactory.getMemoryMXBean

  def cpuNs(): Long   = os.getProcessCpuTime
  def gcMs(): Long    = gcs.map(_.getCollectionTime).sum
  def gcCount(): Long = gcs.map(_.getCollectionCount).sum

  /** Live heap in MiB: heap in use right after a forced full collection. */
  def liveHeapMb(): Double = {
    System.gc()
    heap.getHeapMemoryUsage.getUsed / 1048576.0
  }
}

/** One timed call into a layer's public function. `liveMb` is the live
  * heap after the call, `retainedMb` its growth across the call (what the
  * layer's output keeps alive).
  */
final case class Span(name: String, parent: String, startNs: Long, endNs: Long,
                      cpuNs: Long, liveMb: Double, retainedMb: Double) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans and counts of one pipeline run, recorded by the benchmark around
  * its own calls into each layer; the program itself is not instrumented.
  * At every span boundary the tracer forces a full GC and samples the live
  * heap, outside the span's timing.
  */
final class Tracer(val root: String) {
  val spans  = ArrayBuffer.empty[Span]
  val counts = scala.collection.mutable.LinkedHashMap.empty[String, Double]
  /** Live heap before the run. */
  val baseLiveMb: Double = Probe.liveHeapMb()
  private var lastLive = baseLiveMb
  /** Largest live heap sampled at a span boundary. */
  var maxLiveMb: Double = baseLiveMb
  private val t0 = System.nanoTime()

  def span[A](name: String)(f: => A): A = {
    val c0 = Probe.cpuNs()
    val s0 = System.nanoTime()
    val r  = f
    val s1 = System.nanoTime()
    val c1 = Probe.cpuNs()
    val live = Probe.liveHeapMb()
    spans += Span(name, root, s0, s1, c1 - c0, live, live - lastLive)
    lastLive = live
    maxLiveMb = math.max(maxLiveMb, live)
    r
  }

  def count(name: String, v: Double): Unit = counts(name) = v

  def apply(name: String): Span = spans.find(_.name == name).getOrElse(
    throw new NoSuchElementException(s"no span $name in trace $root"))

  /** Wall time since the tracer started, forced collections included. */
  def elapsedSeconds: Double = (System.nanoTime() - t0) / 1e9
}
