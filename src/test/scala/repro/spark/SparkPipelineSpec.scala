package repro.spark

import repro.SparkSpec
import repro.core._
import repro.data.TimeSeriesGen
import repro.data.TimeSeriesGen.Dataset
import repro.harness.Methods

class SparkPipelineSpec extends SparkSpec {

  /** The kernel pipeline's dendrogram (`Methods.parTdbht` on
    * `Methods.correlationInput`) at the given thread count.
    */
  private def kernelDendrogram(ds: Dataset, prefix: Int, threads: Int): Dendrogram =
    Par.withThreads(threads) { par =>
      val (s, d) = Methods.correlationInput(ds, par)
      Methods.parTdbht(s, d, prefix, ds.numClasses, par).dendrogram.get
    }

  private def assertSame(a: Dendrogram, b: Dendrogram, what: String): Unit = {
    assert(a.left.sameElements(b.left), s"$what: left")
    assert(a.right.sameElements(b.right), s"$what: right")
    assert(a.height.sameElements(b.height), s"$what: height")
  }

  /** A generated dataset with rows 0, 5, 11 and 17 appended again (row 0
    * twice): duplicate series tie exactly in S and in the TMFG gains.
    */
  private lazy val tied: Dataset = {
    val base = TimeSeriesGen.make("ties", 40, 64, 4, noise = 1.0, seed = 11)
    val dup  = Array(0, 5, 11, 17, 0)
    Dataset("ties", base.data ++ dup.map(base.data(_).clone()), base.labels ++ dup.map(base.labels(_)))
  }

  /** A generated dataset with affine copies 3x + 0.7 of rows 0..19
    * appended: a copy's z-scores differ from its source's in the last
    * bits only, so its correlations tie with the source's up to rounding
    * and their order depends on the exact summation.
    */
  private lazy val nearTied: Dataset = {
    val base = TimeSeriesGen.make("near-ties", 40, 600, 4, noise = 1.0, seed = 13)
    val src  = 0 until 20
    Dataset("near-ties", base.data ++ src.map(base.data(_).map(x => 3.0 * x + 0.7)),
            base.labels ++ src.map(base.labels(_)))
  }

  test("distributed pipeline gives the kernel's dendrogram bit for bit") {
    val inputs = Seq(
      (TimeSeriesGen.make("t", 50, 64, 3, noise = 1.0, seed = 7), 3),
      (TimeSeriesGen.make("t", 70, 600, 4, noise = 1.0, seed = 12), 5),
      (tied, 2),
      (nearTied, 2),
    )
    for ((ds, prefix) <- inputs) {
      val dist = SparkPipeline.run(spark, ds, prefix, ds.numClasses)
      assertSame(dist.dendrogram, kernelDendrogram(ds, prefix, 4), s"n=${ds.n} L=${ds.len}")
    }
  }

  test("exact ties: kernel at 1 and 4 threads and the distributed pipeline give one dendrogram") {
    val s = Par.withThreads(1)(par => Methods.correlationInput(tied, par)._1)
    // the input really ties: rows 40 and 44 repeat row 0
    for (j <- 0 until tied.n if !Set(0, 40, 44)(j)) assert(s(40, j) == s(0, j) && s(44, j) == s(0, j), s"column $j")
    val one = kernelDendrogram(tied, 2, 1)
    assertSame(kernelDendrogram(tied, 2, 4), one, "4 threads")
    assertSame(SparkPipeline.run(spark, tied, 2, tied.numClasses).dendrogram, one, "spark")
  }

  test("distributed pipeline equals the kernel pipeline end to end") {
    val ds = TimeSeriesGen.make("t", 50, 64, 3, noise = 1.0, seed = 7)
    val dist = SparkPipeline.run(spark, ds, prefix = 3, k = 3)

    val kernelLabels = Par.withThreads(4) { par =>
      val s = Correlation.pearson(ds.data, par)
      val d = Correlation.dissimilarity(s)
      val res = Tmfg.build(s, 3, par)
      val apsp = Apsp.allPairs(res.graph, d, par)
      val bub = Dbht.bubblesFromTmfg(res, s, par)
      val asg = Dbht.assign(bub, res.graph, s, apsp, par)
      Dbht.dendrogram(s.n, asg, apsp, par).cut(3)
    }
    assert(Ari.ari(dist.labels, kernelLabels) == 1.0)
  }

  test("distributed per-group dendrogram planning equals the Par version") {
    val ds = TimeSeriesGen.make("t", 40, 48, 4, noise = 1.0, seed = 8)
    Par.withThreads(4) { par =>
      val s = Correlation.pearson(ds.data, par)
      val d = Correlation.dissimilarity(s)
      val res = Tmfg.build(s, 2, par)
      val apsp = Apsp.allPairs(res.graph, d, par)
      val bub = Dbht.bubblesFromTmfg(res, s, par)
      val asg = Dbht.assign(bub, res.graph, s, apsp, par)
      val kernelDen = Dbht.dendrogram(s.n, asg, apsp, par)
      val sparkDen  = onSpark(Dbht.dendrogram(s.n, asg, apsp, _))
      assert(kernelDen.left.sameElements(sparkDen.left))
      assert(kernelDen.right.sameElements(sparkDen.right))
      assert(kernelDen.height.sameElements(sparkDen.height))
    }
  }

  test("pipeline clusters class-structured data far better than chance") {
    val ds = TimeSeriesGen.make("t", 60, 96, 3, noise = 0.7, seed = 9)
    val out = SparkPipeline.run(spark, ds, prefix = 5, k = 3)
    assert(Ari.ari(out.labels, ds.labels) > 0.4)
    assert(out.graph.numEdges == 3 * 60 - 6)
  }
}
