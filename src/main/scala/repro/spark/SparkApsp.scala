package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{Apsp, SymMatrix, WGraph}

/** Distributed APSP over the TMFG: the n Dijkstra sources fan out over an
  * RDD while the graph and its edge weights (`Apsp.edgeWeights`, both
  * O(n) for the planar TMFG) ship once as broadcasts — the dataflow
  * equivalent of the paper's "SSSP from every vertex in parallel"
  * (Algorithm 4, Line 7). Each task runs the kernel's `Apsp.dijkstra`,
  * so the rows are bit-identical to `Apsp.allPairs`.
  */
object SparkApsp {

  def allPairs(spark: SparkSession, g: WGraph, d: SymMatrix): SymMatrix = {
    val n = g.n
    val sc = spark.sparkContext
    val bAdj = sc.broadcast(g.adj)
    val bW   = sc.broadcast(Apsp.edgeWeights(g, d))
    try {
      val rows = sc
        .parallelize(0 until n, math.min(256, n))
        .map(src => (src, Apsp.dijkstra(bAdj.value, bW.value, src)))
        .collect()
      val out = SymMatrix.zeros(n)
      for ((src, row) <- rows) System.arraycopy(row, 0, out.data, src * n, n)
      out
    } finally {
      bAdj.destroy()
      bW.destroy()
    }
  }
}
