package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.{Correlation, Par}
import org.apache.spark.sql.DataFrame
import repro.data.TimeSeriesGen
import scala.util.Random

class SparkCorrelationSpec extends SparkSpec {

  test("spark correlation of 12 Gaussian series matches the kernel pearson") {
    val rng = new Random(1)
    val rows = Array.fill(12)(Array.fill(40)(rng.nextGaussian()))
    val sparkM  = onSpark(Correlation.pearson(rows, _))
    val kernelM = Par.withThreads(4)(par => Correlation.pearson(rows, par))
    for (i <- 0 until 12; j <- 0 until 12)
      assert(math.abs(sparkM(i, j) - kernelM(i, j)) < 1e-9, s"($i,$j)")
  }

  test("spark correlation on a generated dataset matches the kernel") {
    val ds = TimeSeriesGen.make("t", 30, 50, 3, 1.0, seed = 2)
    val sparkM  = onSpark(Correlation.pearson(ds.data, _))
    val kernelM = Par.withThreads(4)(par => Correlation.pearson(ds.data, par))
    assert(sparkM.data.zip(kernelM.data).forall { case (a, b) => math.abs(a - b) < 1e-9 })
  }

  test("block-shaped spark correlation is bit-identical to the kernel pearson") {
    // n: one partial block, a full one, one row over (an odd last block),
    // two full blocks plus one row, and a second 256-column panel (300),
    // each task writing a strip at an offset; L = 129 ends in a partial
    // 128-position chunk
    val rng = new Random(4)
    for (n <- Seq(4, 31, 32, 33, 65, 300); len <- Seq(40, 129, 513)) {
      val rows    = Array.fill(n)(Array.fill(len)(rng.nextGaussian()))
      val sparkM  = onSpark(Correlation.pearson(rows, _))
      val kernelM = Par.withThreads(4)(par => Correlation.pearson(rows, par))
      assert(sparkM.data.sameElements(kernelM.data), s"n=$n L=$len")
    }
  }

  test("correlation values agree with DuckDB's corr() aggregate (oracle)") {
    val rng = new Random(3)
    val rows = Array.fill(5)(Array.fill(30)(rng.nextGaussian()))
    val kernelM = Par.withThreads(2)(par => Correlation.pearson(rows, par))
    val df = seriesDf(rows)

    // pairwise correlations computed in Spark SQL from the long-format
    // table; the oracle re-runs the same SQL on DuckDB and diffs rows
    df.createOrReplaceTempView("series_tbl")
    val sql =
      """SELECT a.series AS i, b.series AS j,
        |       corr(CAST(a.value AS DOUBLE), CAST(b.value AS DOUBLE)) AS c
        |FROM series_tbl a JOIN series_tbl b
        |  ON a.t = b.t AND a.series < b.series
        |GROUP BY a.series, b.series""".stripMargin
    val sparkOut = spark.sql(sql)
    Oracle.assertEquivalent(sparkOut, sql.replace("series_tbl", "series"), "series" -> df)

    // and the SQL corr agrees with our kernel matrix
    for (r <- sparkOut.collect()) {
      val i = r.getInt(0); val j = r.getInt(1); val c = r.getDouble(2)
      assert(math.abs(c - kernelM(i, j)) < 1e-6, s"($i,$j)")
    }
  }

  /** The series as (series, t, value) rows, for the DuckDB oracle. */
  private def seriesDf(rows: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    (for ((r, i) <- rows.zipWithIndex; (v, t) <- r.zipWithIndex) yield (i, t, v)).toSeq.toDF("series", "t", "value")
  }
}
