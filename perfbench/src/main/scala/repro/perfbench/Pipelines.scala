package repro.perfbench

import repro.core._
import repro.data.TimeSeriesGen.Dataset
import repro.harness.Methods

/** What every pipeline run yields for the correctness checks. `edges` is
  * the TMFG edge count, or -1 where the composition does not expose the
  * graph (`Methods.parTdbht` returns only labels, dendrogram and weight).
  */
final case class Output(labels: Array[Int], dendrogram: Dendrogram, edges: Int, edgeWeight: Double)

/** The kernel pipeline composed two ways: untraced, through the program's
  * own entry points, and traced, as the same sequence of layer calls with a
  * span around each. The benchmark checks that both give the same dendrogram.
  */
object Pipelines {

  def kernel(ds: Dataset, prefix: Int, k: Int, par: Par): Output = {
    val (s, d) = Methods.correlationInput(ds, par)
    val r = Methods.parTdbht(s, d, prefix, k, par)
    Output(r.labels, r.dendrogram.get, -1, r.totalEdgeWeight)
  }

  /** `Methods.correlationInput` followed by `Methods.parTdbht`, one span per layer call. */
  def kernelTraced(ds: Dataset, prefix: Int, k: Int, par: Par, tr: Tracer): Output = {
    val n = ds.n
    val s    = tr.span("correlation.pearson")(Correlation.pearson(ds.data, par))
    val d    = tr.span("correlation.dissimilarity")(Correlation.dissimilarity(s))
    val res  = tr.span("tmfg.build")(Tmfg.build(s, prefix, par))
    val apsp = tr.span("apsp.all_pairs")(Apsp.allPairs(res.graph, d, par))
    val bub  = tr.span("bubble.tree")(Dbht.bubblesFromTmfg(res, s, par))
    val asg  = tr.span("dbht.assign")(Dbht.assign(bub, res.graph, s, apsp, par))
    val den  = tr.span("dbht.hierarchy")(Dbht.dendrogram(n, asg, apsp, par))
    val labels = tr.span("dendrogram.cut")(den.cut(k))
    val edges = res.graph.numEdges

    tr.count("tmfg.rounds", res.rounds)
    tr.count("tmfg.edges", edges)
    tr.count("bubble.count", bub.numBubbles)
    val converging = bub.convergingBubbles
    tr.count("bubble.converging", converging.length)
    // vertices in no converging bubble: the ones Dbht.assign places by
    // mean shortest-path distance (Lbar) rather than by chi
    val inConverging = new Array[Boolean](n)
    for (b <- converging; v <- bub.vertsOf(b)) inConverging(v) = true
    tr.count("dbht.lbar_vertices", inConverging.count(!_))
    val groupSizes = asg.group.groupBy(identity).values.map(_.length)
    tr.count("dbht.groups", groupSizes.size)
    tr.count("dbht.max_group_size", groupSizes.max)
    Output(labels, den, edges, res.graph.totalWeight(s))
  }
}
