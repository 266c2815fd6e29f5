package repro.harness

import repro.core._
import repro.cluster.{KMeans, Spectral}
import repro.data.TimeSeriesGen.Dataset
import repro.pmfg.{GenericBubbles, Pmfg}

/** Method runners for every clustering method in the paper's evaluation,
  * each returning flat labels (dendrogram cut at the ground-truth class
  * count, as the paper does) plus per-step wall-clock timings matching
  * the paper's runtime decomposition (Fig. 5): "tmfg" = filtered-graph
  * construction, "apsp" = all-pairs shortest paths, "bubble" = bubble
  * tree + directions + vertex assignment, "hierarchy" = the three-level
  * complete linkage.
  */
object Methods {

  final case class Timings(tmfg: Double, apsp: Double, bubble: Double, hierarchy: Double) {
    def total: Double = tmfg + apsp + bubble + hierarchy
  }

  final case class RunResult(labels: Array[Int], timings: Timings,
                             dendrogram: Option[Dendrogram], totalEdgeWeight: Double)

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Similarity (Pearson) and dissimilarity (sqrt(2(1-p))) matrices. */
  def correlationInput(ds: Dataset, par: Par): (SymMatrix, SymMatrix) = {
    val s = Correlation.pearson(ds.data, par)
    (s, Correlation.dissimilarity(s, par))
  }

  /** PAR-TDBHT: the paper's contribution — batched TMFG + optimized DBHT. */
  def parTdbht(s: SymMatrix, d: SymMatrix, prefix: Int, k: Int, exec: Exec): RunResult =
    dbht(s, d, k, exec)(Tmfg.build(s, prefix, exec))(_.graph, Dbht.bubblesFromTmfg(_, s, exec.local))

  /** SEQ-TDBHT baseline: sequential TMFG (PREFIX=1, 1 thread) and the
    * original quadratic DBHT steps (triangle enumeration + BFS
    * separating tests + BFS directions).
    */
  def seqTdbht(s: SymMatrix, d: SymMatrix, k: Int): RunResult = Par.withThreads(1) { par1 =>
    dbht(s, d, k, par1)(Tmfg.build(s, 1, par1).graph)(identity, GenericBubbles.bubbles(_, s))
  }

  /** PMFG-DBHT baseline: repeated-planarity-test PMFG construction and
    * the original quadratic DBHT.
    */
  def pmfgDbht(s: SymMatrix, d: SymMatrix, k: Int): RunResult = Par.withThreads(1) { par1 =>
    dbht(s, d, k, par1)(Pmfg.build(s))(identity, GenericBubbles.bubbles(_, s))
  }

  /** The four timed steps of every DBHT method: `build` the filtered
    * graph (`graphOf` reads the graph off its result), APSP, bubbles
    * (`bubblesOf`) + assignment, hierarchy; then the cut at k, whose
    * range is checked before the first step. APSP and the hierarchy fan
    * out on `exec`; the assignment runs on `exec.local`.
    */
  private def dbht[G](s: SymMatrix, d: SymMatrix, k: Int, exec: Exec)(build: => G)
                     (graphOf: G => WGraph, bubblesOf: G => Bubbles): RunResult = {
    Dendrogram.checkK(k, s.n)
    val (built, tGraph) = timed(build)
    val g = graphOf(built)
    val (apsp, tApsp)   = timed(Apsp.allPairs(g, d, exec))
    val (asg, tBubble)  = timed(Dbht.assign(bubblesOf(built), g, s, apsp, exec.local))
    val (dendro, tHier) = timed(Dbht.dendrogram(s.n, asg, apsp, exec))
    RunResult(dendro.cut(k), Timings(tGraph, tApsp, tBubble, tHier), Some(dendro), g.totalWeight(s))
  }

  /** COMP / AVG baselines: HAC over the full dissimilarity matrix. */
  def hacBaseline(d: SymMatrix, k: Int, method: Linkage.Method): RunResult = {
    Dendrogram.checkK(k, d.n)
    val (dendro, t) = timed(Linkage.hac(d, method))
    RunResult(dendro.cut(k), Timings(0, 0, 0, t), Some(dendro), 0.0)
  }

  /** K-MEANS baseline. The series are z-scored first: the UCR archive
    * ships z-normalized series, so the paper's k-means effectively runs
    * on normalized shapes (and the correlation-based methods see
    * normalized input by construction).
    */
  def kmeans(data: Array[Array[Double]], k: Int, par: Par): (Array[Int], Double) = {
    val z = Correlation.zscore(data)
    val (r, t) = timed(KMeans.fit(z, k, par))
    (r.labels, t)
  }

  /** K-MEANS-S baseline: beta-NN spectral embedding to c dims + k-means,
    * over z-scored series (see `kmeans`).
    */
  def kmeansSpectral(data: Array[Array[Double]], k: Int, beta: Int, par: Par): (Array[Int], Double) = {
    val z = Correlation.zscore(data)
    val (labels, t) = timed {
      val emb = Spectral.embed(z, beta, k, par)
      KMeans.fit(emb, k, par).labels
    }
    (labels, t)
  }
}
