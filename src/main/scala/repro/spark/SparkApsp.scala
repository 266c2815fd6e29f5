package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{Apsp, SymMatrix, WGraph}

/** Distributed APSP over the TMFG: the n sources fan out over an RDD
  * while the CSR graph and its D weights (`Apsp.Edges`, O(n) for the
  * planar TMFG) ship once as a broadcast — the dataflow equivalent of the
  * paper's "SSSP from every vertex in parallel" (Algorithm 4, Line 7).
  * Each partition allocates one `Apsp.Workspace` and runs the kernel's
  * `Apsp.row` for each of its sources, so the rows are bit-identical to
  * `Apsp.allPairs`.
  */
object SparkApsp {

  def allPairs(spark: SparkSession, g: WGraph, d: SymMatrix): SymMatrix = {
    val n = g.n
    val sc = spark.sparkContext
    val bE = sc.broadcast(Apsp.edges(g, d))
    try {
      val rows = sc
        .parallelize(0 until n, math.min(256, n))
        .mapPartitions { srcs =>
          val e    = bE.value
          val work = new Apsp.Workspace(e)
          srcs.map { src =>
            val row = new Array[Double](n)
            Apsp.row(e, src, row, 0, work)
            (src, row)
          }
        }
        .collect()
      val out = SymMatrix.zeros(n)
      for ((src, row) <- rows) System.arraycopy(row, 0, out.data, src * n, n)
      out
    } finally bE.destroy()
  }
}
