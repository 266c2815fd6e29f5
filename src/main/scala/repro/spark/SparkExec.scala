package repro.spark

import scala.reflect.ClassTag
import org.apache.spark.sql.SparkSession
import repro.core.{Exec, Par}

/** The kernel's stages as Spark jobs: each fan-out is one RDD job whose
  * tasks run the kernel's own task functions, and a `share`d value is a
  * broadcast. `local` drives the loops over the driver's O(n) state.
  */
final class SparkExec(spark: SparkSession, val local: Par) extends Exec {

  /** One RDD job of at most 64 partitions. */
  def map[A: ClassTag, B: ClassTag](items: Array[A], grain: Int)(f: A => B): Array[B] = {
    val slices = math.max(1, math.min(64, items.length / math.max(1, grain)))
    spark.sparkContext.parallelize(items.toIndexedSeq, slices).map(f).collect()
  }

  /** Each task writes its rows into a strip of its own; the driver copies
    * the strips into `out`, then runs every `after`.
    */
  def fillRows(out: Array[Double], width: Int, tasks: Int)(rows: Int => (Int, Int))
              (write: (Int, Array[Double], Int) => Unit)(after: Int => Unit): Unit = {
    val strips = map(Array.range(0, tasks), 1) { b =>
      val (r0, r1) = rows(b)
      val strip = new Array[Double]((r1 - r0) * width)
      write(b, strip, r0 * width)
      (r0, strip)
    }
    for ((r0, strip) <- strips) System.arraycopy(strip, 0, out, r0 * width, strip.length)
    for (b <- 0 until tasks) after(b)
  }

  def share[A: ClassTag, R](x: A)(body: (() => A) => R): R = {
    val bx = spark.sparkContext.broadcast(x)
    try body(() => bx.value) finally bx.destroy()
  }
}
