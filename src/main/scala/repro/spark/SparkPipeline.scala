package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.TimeSeriesGen.Dataset

/** End-to-end distributed PAR-TDBHT pipeline: RDD correlation blocks ->
  * RDD TMFG -> RDD APSP -> driver assignments (O(n) state) -> RDD
  * fan-out of the per-group complete-linkage plans -> dendrogram.
  *
  * Every stage runs the kernel's own functions, so the dendrogram is
  * bit-identical to the thread-pool kernel pipeline's
  * (`repro.harness.Methods.parTdbht`); the kernel carries the runtime
  * experiments, this job demonstrates the distributed-dataflow
  * formulation (see DESIGN.md "Extension-point note").
  */
object SparkPipeline {

  final case class PipelineResult(labels: Array[Int], dendrogram: Dendrogram,
                                  graph: WGraph, rounds: Int)

  /** Distributed per-group dendrogram planning (Algorithm 4 Lines 24-33):
    * `Dbht.hierarchy` with the groups fanned out over an RDD; each task
    * gets its group's bubbles and APSP block, and each group's plan comes
    * back as its merge pairs.
    */
  def dendrogram(spark: SparkSession, n: Int, asg: Dbht.Assignments,
                 apspD: SymMatrix): Dendrogram =
    Dbht.hierarchy(n, asg, apspD) { groups =>
      spark.sparkContext.parallelize(groups.toIndexedSeq, math.min(64, math.max(1, groups.length)))
        .map((Dbht.planGroup _).tupled)
        .collect()
    }

  /** Full pipeline from raw series to flat clusters (cut at k; a k
    * outside 1..n or fewer than 4 series fail before any stage runs).
    */
  def run(spark: SparkSession, ds: Dataset, prefix: Int, k: Int): PipelineResult = {
    Dendrogram.checkK(k, ds.n)
    Tmfg.checkN(ds.n)
    val s = SparkCorrelation.pearson(spark, ds.data)
    val d = Correlation.dissimilarity(s)
    val res  = SparkTmfg.build(spark, s, prefix)
    val apsp = SparkApsp.allPairs(spark, res.graph, d)
    // O(n) assignment state stays on the driver, like the shared-memory
    // algorithm's shared arrays; a Par over local cores drives it
    val dendro = Par.default { par =>
      val bub = Dbht.bubblesFromTmfg(res, s, par)
      dendrogram(spark, s.n, Dbht.assign(bub, res.graph, s, apsp, par), apsp)
    }
    PipelineResult(dendro.cut(k), dendro, res.graph, res.rounds)
  }
}
