package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.TimeSeriesGen.Dataset

/** End-to-end distributed PAR-TDBHT pipeline: the kernel's stages on a
  * `SparkExec`, so Pearson blocks, TMFG rescans, APSP sources and DBHT
  * group plans run as RDD tasks while the O(n) state (TMFG rounds,
  * bubbles, assignments) stays on the driver.
  *
  * Every stage is the kernel's own function, so the dendrogram is
  * bit-identical to the thread-pool kernel pipeline's
  * (`repro.harness.Methods.parTdbht`); the kernel carries the runtime
  * experiments, this job demonstrates the distributed-dataflow
  * formulation (see DESIGN.md "Extension-point note").
  */
object SparkPipeline {

  final case class PipelineResult(labels: Array[Int], dendrogram: Dendrogram,
                                  graph: WGraph, rounds: Int)

  /** Full pipeline from raw series to flat clusters (cut at k; a k
    * outside 1..n or fewer than 4 series fail before any stage runs).
    */
  def run(spark: SparkSession, ds: Dataset, prefix: Int, k: Int): PipelineResult = {
    Dendrogram.checkK(k, ds.n)
    Tmfg.checkN(ds.n)
    Par.default { par =>
      val exec = new SparkExec(spark, par)
      val s    = Correlation.pearson(ds.data, exec)
      val d    = Correlation.dissimilarity(s, par)
      val res  = Tmfg.build(s, prefix, exec)
      val apsp = Apsp.allPairs(res.graph, d, exec)
      val asg  = Dbht.assign(Dbht.bubblesFromTmfg(res, s, par), res.graph, s, apsp, par)
      val dendro = Dbht.dendrogram(s.n, asg, apsp, exec)
      PipelineResult(dendro.cut(k), dendro, res.graph, res.rounds)
    }
  }
}
