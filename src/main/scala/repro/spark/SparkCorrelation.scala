package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{Correlation, SymMatrix}

/** Distributed Pearson-correlation matrix.
  *
  * The n series (rows of the dataset) are z-scored on the driver and
  * shipped once as a broadcast. The kernel's row blocks fan out over an
  * RDD: each task runs `Correlation.upperBlock` for one block into its
  * own strip of rows, and the driver copies the strips into the matrix
  * and mirrors them with `Correlation.mirrorBlock`. Both paths run the
  * same kernel, so the matrix is bit-identical to
  * `repro.core.Correlation.pearson`.
  */
object SparkCorrelation {

  def pearson(spark: SparkSession, rows: Array[Array[Double]]): SymMatrix = {
    val z  = Correlation.zscore(rows)
    val n  = z.length
    val nb = Correlation.numBlocks(n)
    val sc = spark.sparkContext
    val bZ = sc.broadcast(z)
    val m  = SymMatrix.zeros(n)
    try {
      sc.parallelize(0 until nb, math.max(1, nb))
        .map { b =>
          val (i0, i1) = Correlation.blockRows(n, b)
          val strip = new Array[Double]((i1 - i0) * n)
          Correlation.upperBlock(bZ.value, b, strip, i0 * n)
          (i0, strip)
        }
        .collect()
        .foreach { case (i0, strip) => System.arraycopy(strip, 0, m.data, i0 * n, strip.length) }
    } finally bZ.destroy()
    // after every strip is in place: a block mirrors into later rows
    for (b <- 0 until nb) Correlation.mirrorBlock(m.data, n, b)
    m
  }
}
