package repro.spark

import repro.{Oracle, SparkSpec, TestUtils}
import repro.core.{Ari, Par, Tmfg}

/** DuckDB-oracle checks for every dataflow quantity expressible in SQL:
  * seed selection row sums, TMFG edge-weight totals, weighted degrees,
  * and the ARI contingency table.
  */
class OracleSpec extends SparkSpec {
  import org.apache.spark.sql.functions._

  private val n = 20
  private val sim = TestUtils.randomSim(n, 11)
  private lazy val res = Par.withThreads(2)(par => Tmfg.build(sim, 2, par))

  private def simDf = {
    import spark.implicits._
    (for (i <- 0 until n; j <- 0 until n) yield (i, j, sim(i, j)))
      .toDF("i", "j", "s")
  }

  private def edgeDf = {
    import spark.implicits._
    res.graph.edges.map { case (u, v) => (u, v, sim(u, v)) }.toDF("u", "v", "w")
  }

  test("row sums used for seed selection match DuckDB") {
    val df = simDf
    df.createOrReplaceTempView("sim_tbl")
    val sql = "SELECT i AS vertex, sum(CAST(s AS DOUBLE)) AS rowsum FROM sim_tbl GROUP BY i"
    val sparkOut = spark.sql(sql)
    Oracle.assertEquivalent(sparkOut, sql.replace("sim_tbl", "sim"), "sim" -> df)
    // and the top-4 row sums are the seed clique
    val top4 = sparkOut.orderBy(desc("rowsum"), asc("vertex")).limit(4)
      .collect().map(_.getInt(0)).toSet
    assert(top4 == res.insertionOrder.take(4).toSet)
  }

  test("TMFG total edge weight matches DuckDB") {
    val df = edgeDf
    df.createOrReplaceTempView("edges_tbl")
    val sql = "SELECT sum(CAST(w AS DOUBLE)) AS total FROM edges_tbl"
    Oracle.assertEquivalent(spark.sql(sql), sql.replace("edges_tbl", "edges"), "edges" -> df)
    val total = spark.sql(sql).collect()(0).getDouble(0)
    assert(math.abs(total - res.graph.totalWeight(sim)) < 1e-9)
  }

  test("TMFG edge count per vertex (degrees) match DuckDB") {
    val df = edgeDf
    df.createOrReplaceTempView("edges_tbl")
    val sql =
      """SELECT vertex, count(*) AS deg FROM (
        |  SELECT u AS vertex FROM edges_tbl
        |  UNION ALL
        |  SELECT v AS vertex FROM edges_tbl
        |) GROUP BY vertex""".stripMargin
    val sparkOut = spark.sql(sql)
    Oracle.assertEquivalent(sparkOut, sql.replace("edges_tbl", "edges"), "edges" -> df)
    for (r <- sparkOut.collect())
      assert(r.getLong(1) == TestUtils.degree(res.graph, r.getInt(0)))
  }

  test("weighted degrees match DuckDB") {
    val df = edgeDf
    df.createOrReplaceTempView("edges_tbl")
    val sql =
      """SELECT vertex, sum(CAST(w AS DOUBLE)) AS wdeg FROM (
        |  SELECT u AS vertex, w FROM edges_tbl
        |  UNION ALL
        |  SELECT v AS vertex, w FROM edges_tbl
        |) GROUP BY vertex""".stripMargin
    val sparkOut = spark.sql(sql)
    Oracle.assertEquivalent(sparkOut, sql.replace("edges_tbl", "edges"), "edges" -> df)
    val wdeg = res.graph.weightedDegrees(sim)
    for (r <- sparkOut.collect())
      assert(math.abs(r.getDouble(1) - wdeg(r.getInt(0))) < 1e-9)
  }

  test("ARI contingency counts match DuckDB") {
    import spark.implicits._
    val a = Array(0, 0, 1, 1, 2, 2, 0, 1)
    val b = Array(1, 1, 0, 0, 2, 2, 1, 0)
    val df = a.zip(b).zipWithIndex.map { case ((x, y), id) => (id, x, y) }
      .toSeq.toDF("id", "la", "lb")
    df.createOrReplaceTempView("labels_tbl")
    val sql = "SELECT la, lb, count(*) AS n FROM labels_tbl GROUP BY la, lb"
    val sparkOut = spark.sql(sql)
    Oracle.assertEquivalent(sparkOut, sql.replace("labels_tbl", "labels"), "labels" -> df)
    // cross-check the contingency against Ari.contingency
    val (table, _, _) = Ari.contingency(a, b)
    for (r <- sparkOut.collect())
      assert(table(r.getInt(0))(r.getInt(1)) == r.getLong(2))
  }

  test("TMFG edge list has no duplicates and no self-loops (SQL check)") {
    val df = edgeDf
    df.createOrReplaceTempView("edges_tbl")
    val dup = spark.sql(
      "SELECT u, v, count(*) AS c FROM edges_tbl GROUP BY u, v HAVING count(*) > 1")
    assert(dup.count() == 0)
    val loops = spark.sql("SELECT * FROM edges_tbl WHERE u = v")
    assert(loops.count() == 0)
  }
}
