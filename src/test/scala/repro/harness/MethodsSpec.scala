package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TimeSeriesGen
import repro.pmfg.{GenericBubbles, Pmfg}

/** Integration tests: every method runner in the harness produces sane
  * clusters and timings on a small class-structured dataset.
  */
class MethodsSpec extends AnyFunSuite {

  private lazy val ds = TimeSeriesGen.make("methods-test", 80, 96, 4, noise = 0.5, seed = 21)
  private lazy val (s, d) = Par.withThreads(4)(par => Methods.correlationInput(ds, par))

  test("parTdbht produces k clusters, positive timings, strong ARI on easy data") {
    Par.withThreads(4) { par =>
      val r = Methods.parTdbht(s, d, prefix = 2, k = 4, par)
      assert(r.labels.distinct.length == 4)
      assert(r.timings.tmfg > 0 && r.timings.apsp > 0 && r.timings.hierarchy > 0)
      assert(r.totalEdgeWeight > 0)
      // sanity band, not a quality claim — bench T6 measures quality
      assert(Ari.ari(r.labels, ds.labels) > 0.25)
    }
  }

  test("parTdbht prefix 1 matches seqTdbht clusters (same algorithm, different substrate)") {
    Par.withThreads(4) { par =>
      val p = Methods.parTdbht(s, d, prefix = 1, k = 4, par)
      val q = Methods.seqTdbht(s, d, k = 4)
      assert(Ari.ari(p.labels, q.labels) == 1.0)
      assert(math.abs(p.totalEdgeWeight - q.totalEdgeWeight) < 1e-9)
    }
  }

  test("pmfgDbht runs and clusters the easy data") {
    val r = Methods.pmfgDbht(s, d, k = 4)
    assert(r.labels.distinct.length == 4)
    assert(Ari.ari(r.labels, ds.labels) > 0.3)
  }

  test("PMFG edge weight >= TMFG edge weight on correlation input") {
    Par.withThreads(4) { par =>
      val t = Methods.parTdbht(s, d, prefix = 1, k = 4, par)
      val p = Methods.pmfgDbht(s, d, k = 4)
      assert(p.totalEdgeWeight >= t.totalEdgeWeight - 1e-9)
    }
  }

  test("each DBHT runner's dendrogram equals its layer calls composed by hand") {
    def byHand(g: WGraph, bubbles: WGraph => Bubbles, par: Par): Dendrogram = {
      val apsp = Apsp.allPairs(g, d, par)
      Dbht.dendrogram(s.n, Dbht.assign(bubbles(g), g, s, apsp, par), apsp, par)
    }
    def same(a: Dendrogram, b: Dendrogram): Boolean =
      a.left.sameElements(b.left) && a.right.sameElements(b.right) && a.height.sameElements(b.height)
    Par.withThreads(4) { par =>
      val res = Tmfg.build(s, 2, par)
      val want = byHand(res.graph, _ => Dbht.bubblesFromTmfg(res, s, par), par)
      assert(same(Methods.parTdbht(s, d, prefix = 2, k = 4, par).dendrogram.get, want), "parTdbht")
    }
    Par.withThreads(1) { par =>
      val seq = byHand(Tmfg.build(s, 1, par).graph, GenericBubbles.bubbles(_, s), par)
      assert(same(Methods.seqTdbht(s, d, k = 4).dendrogram.get, seq), "seqTdbht")
      val pmfg = byHand(Pmfg.build(s), GenericBubbles.bubbles(_, s), par)
      assert(same(Methods.pmfgDbht(s, d, k = 4).dendrogram.get, pmfg), "pmfgDbht")
    }
  }

  /** `run(k)` rejects k = 0 and k = n + 1 for n objects with the k-range message. */
  private def rejectsK(n: Int)(run: Int => Any): Unit =
    for (k <- Seq(0, n + 1)) {
      val msg = intercept[IllegalArgumentException](run(k)).getMessage
      assert(msg == s"requirement failed: k = $k is outside 1..n = $n: cannot cut $n objects into $k clusters", msg)
    }

  // No objects: every stage fails on this input with its own message (TMFG
  // needs n >= 4, PMFG n >= 3, a dendrogram n >= 1), so the k message shows
  // that the runner stopped before its first stage.
  private lazy val empty = SymMatrix.zeros(0)

  test("parTdbht rejects k outside 1..n before building the TMFG") {
    Par.withThreads(2)(par => rejectsK(0)(k => Methods.parTdbht(empty, empty, prefix = 1, k, par)))
  }

  test("seqTdbht rejects k outside 1..n before building the TMFG") {
    rejectsK(0)(k => Methods.seqTdbht(empty, empty, k))
  }

  test("pmfgDbht rejects k outside 1..n before building the PMFG") {
    rejectsK(0)(k => Methods.pmfgDbht(empty, empty, k))
  }

  test("hacBaseline rejects k outside 1..n before the linkage") {
    rejectsK(0)(k => Methods.hacBaseline(empty, k, Linkage.Complete))
  }

  test("SparkPipeline.run rejects k outside 1..n before any stage") {
    // no SparkSession: any stage would fail on it
    val six = TimeSeriesGen.make("k-range", 6, 8, 2, noise = 0.5, seed = 3)
    rejectsK(6)(k => repro.spark.SparkPipeline.run(null, six, prefix = 1, k))
  }

  test("SparkPipeline.run rejects fewer than 4 series before any stage") {
    // no SparkSession: any stage would fail on it
    val three = TimeSeriesGen.make("n-range", 3, 8, 2, noise = 0.5, seed = 3)
    val msg = intercept[IllegalArgumentException](repro.spark.SparkPipeline.run(null, three, prefix = 1, k = 2)).getMessage
    assert(msg == "requirement failed: TMFG needs at least 4 vertices, got 3", msg)
  }

  test("COMP and AVG baselines run and produce k clusters") {
    for (m <- Seq[Linkage.Method](Linkage.Complete, Linkage.Average)) {
      val r = Methods.hacBaseline(d, k = 4, m)
      assert(r.labels.distinct.length == 4)
      assert(r.timings.hierarchy > 0)
    }
  }

  test("k-means baseline beats chance on the easy data") {
    Par.withThreads(4) { par =>
      val (labels, t) = Methods.kmeans(ds.data, 4, par)
      assert(t > 0 && labels.distinct.length <= 4)
      assert(Ari.ari(labels, ds.labels) > 0.3)
    }
  }

  test("spectral k-means baseline runs") {
    Par.withThreads(4) { par =>
      val (labels, t) = Methods.kmeansSpectral(ds.data, 4, beta = 10, par)
      assert(t > 0 && labels.length == 80)
    }
  }

  test("timings decomposition sums to total") {
    Par.withThreads(2) { par =>
      val r = Methods.parTdbht(s, d, prefix = 3, k = 4, par)
      val tt = r.timings
      assert(math.abs(tt.total - (tt.tmfg + tt.apsp + tt.bubble + tt.hierarchy)) < 1e-12)
    }
  }

  test("dataset registry generates the declared shapes") {
    for (spec <- Datasets.specs.take(3)) {
      val gen = spec.generate()
      assert(gen.n == spec.n && gen.len == spec.len && gen.numClasses == spec.classes)
    }
  }

  test("registry ids are unique and look ups work") {
    assert(Datasets.specs.map(_.id).distinct.length == Datasets.specs.length)
    assert(Datasets.byId(6).name == "ecg5000-like")
    intercept[RuntimeException](Datasets.byId(999))
  }
}
