package repro.core

import scala.reflect.ClassTag

/** Where a stage's independent tasks run: `Par` runs them on a thread
  * pool, `repro.spark.SparkExec` as Spark jobs. Each fan-out stage
  * (Pearson row blocks, TMFG rescans, APSP sources, DBHT group plans) is
  * written once against it, and every task runs the same kernel either
  * way, so the output does not depend on the executor. A task function
  * may be shipped to another JVM: it captures only small values and
  * `share`d handles, never an n x n array.
  */
trait Exec {

  /** The driver's pool, for loops over state that stays on the driver. */
  def local: Par

  /** `f` of every item, in order, at least `grain` items per task. */
  def map[A: ClassTag, B: ClassTag](items: Array[A], grain: Int)(f: A => B): Array[B]

  /** Fills the row-major matrix `out` (`width` cells a row, 0.0 on entry)
    * with `tasks` tasks: task b writes rows `rows(b)` = (r0, r1) through
    * `write(b, buf, off)`, cell c at `buf(c - off)`. Then `after(b)` runs
    * on the driver's side, once task b's cells are in `out`.
    */
  def fillRows(out: Array[Double], width: Int, tasks: Int)(rows: Int => (Int, Int))
              (write: (Int, Array[Double], Int) => Unit)(after: Int => Unit): Unit

  /** `body` with a handle that reads `x`, which is shipped once to every task. */
  def share[A: ClassTag, R](x: A)(body: (() => A) => R): R
}
