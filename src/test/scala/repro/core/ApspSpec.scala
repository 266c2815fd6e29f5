package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils

class ApspSpec extends AnyFunSuite {

  test("dijkstra on a path graph") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val d = SymMatrix.zeros(4)
    d.update(0, 1, 1.0); d.update(1, 2, 2.0); d.update(2, 3, 3.0)
    val dist = TestUtils.sssp(g, d, 0)
    assert(dist.toSeq == Seq(0.0, 1.0, 3.0, 6.0))
  }

  test("dijkstra prefers the lighter indirect route") {
    val g = WGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    val d = SymMatrix.zeros(3)
    d.update(0, 1, 1.0); d.update(1, 2, 1.0); d.update(0, 2, 5.0)
    assert(TestUtils.sssp(g, d, 0)(2) == 2.0)
  }

  test("unreachable vertices get +inf") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    val d = SymMatrix.zeros(4)
    d.update(0, 1, 1.0); d.update(2, 3, 1.0)
    val dist = TestUtils.sssp(g, d, 0)
    assert(dist(2).isPosInfinity && dist(3).isPosInfinity)
  }

  test("Edges reads the graph's own CSR arrays and adds one weight per entry") {
    val (g, d) = TestUtils.tmfgWithD(TestUtils.randomSim(30, 15), 2)
    val e = Apsp.edges(g, d)
    assert(e.g eq g)
    assert(e.w.length == 2 * g.numEdges)
  }

  test("allPairs matches Floyd-Warshall on random TMFGs") {
    for (seed <- 1L to 3L) {
      val s = TestUtils.randomSim(25, seed)
      val d = Correlation.dissimilarity(s)
      val g = Par.withThreads(4)(par => Tmfg.build(s, 3, par)).graph
      val apsp = Par.withThreads(4)(par => Apsp.allPairs(g, d, par))
      val fw = TestUtils.floydWarshall(g, d)
      for (i <- 0 until 25; j <- 0 until 25)
        assert(math.abs(apsp(i, j) - fw(i)(j)) < 1e-9, s"seed=$seed ($i,$j)")
    }
  }

  test("allPairs is symmetric with zero diagonal") {
    val s = TestUtils.randomSim(30, 4)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(2)(par => Tmfg.build(s, 5, par)).graph
    val apsp = Par.withThreads(2)(par => Apsp.allPairs(g, d, par))
    for (i <- 0 until 30) {
      assert(apsp(i, i) == 0.0)
      for (j <- 0 until 30) assert(math.abs(apsp(i, j) - apsp(j, i)) < 1e-12)
    }
  }

  test("shortest path distance is bounded above by the direct edge") {
    val s = TestUtils.randomSim(20, 5)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(2)(par => Tmfg.build(s, 1, par)).graph
    val apsp = Par.withThreads(2)(par => Apsp.allPairs(g, d, par))
    for ((u, v) <- g.edges) assert(apsp(u, v) <= d(u, v) + 1e-12)
  }

  test("triangle inequality holds") {
    val s = TestUtils.randomSim(15, 6)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(2)(par => Tmfg.build(s, 2, par)).graph
    val apsp = Par.withThreads(2)(par => Apsp.allPairs(g, d, par))
    for (i <- 0 until 15; j <- 0 until 15; k <- 0 until 15)
      assert(apsp(i, j) <= apsp(i, k) + apsp(k, j) + 1e-9)
  }

  test("allPairs identical across thread counts") {
    val s = TestUtils.randomSim(40, 7)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(4)(par => Tmfg.build(s, 4, par)).graph
    val a1 = Par.withThreads(1)(par => Apsp.allPairs(g, d, par))
    val a8 = Par.withThreads(8)(par => Apsp.allPairs(g, d, par))
    assert(a1.data.sameElements(a8.data))
  }

  /** `allPairs` at 1 and 4 threads equals the reference Dijkstra's rows
    * bit for bit, and so does the single-source `TestUtils.sssp`.
    */
  private def assertBitExact(g: WGraph, d: SymMatrix, what: String): Unit = {
    val ref = TestUtils.dijkstraRows(g, d)
    val flat = Array.concat(ref: _*)
    for (threads <- Seq(1, 4)) {
      val apsp = Par.withThreads(threads)(par => Apsp.allPairs(g, d, par))
      assert(apsp.data.sameElements(flat), s"$what, $threads threads")
    }
    for (src <- Seq(0, g.n / 2, g.n - 1))
      assert(TestUtils.sssp(g, d, src).sameElements(ref(src)), s"$what, dijkstra from $src")
  }

  test("bit-identical to the reference Dijkstra on random TMFGs") {
    for (seed <- 1L to 3L; prefix <- Seq(1, 5)) {
      val (g, d) = TestUtils.tmfgWithD(TestUtils.randomSim(60, seed), prefix)
      assertBitExact(g, d, s"seed $seed prefix $prefix")
    }
  }

  test("bit-identical on quantised similarities (zero weights and exact ties)") {
    for (seed <- 1L to 3L) {
      val (g, d) = TestUtils.tmfgWithD(TestUtils.quantisedSim(60, seed), 3)
      assert(g.edges.exists { case (u, v) => d(u, v) == 0.0 }, "input has a zero-weight edge")
      assertBitExact(g, d, s"seed $seed")
    }
  }

  test("bit-identical on series with duplicated rows and on 1e-9-perturbed copies") {
    val rng = new scala.util.Random(5)
    val inputs = Seq(
      "duplicated rows"   -> TestUtils.tmfgOfCopies(20, 21)(identity),
      "perturbed by 1e-9" -> TestUtils.tmfgOfCopies(20, 22)(x => x + 1e-9 * rng.nextGaussian()))
    for ((what, (g, d)) <- inputs) assertBitExact(g, d, what)
  }

  test("bit-identical on a 300-vertex path whose distances wrap the bucket ring many times") {
    val n = 300
    val g = WGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))
    val d = SymMatrix.zeros(n)
    for (i <- 0 until n - 1) d.update(i, i + 1, if (i % 2 == 0) 1.0 else 64.0)
    assertBitExact(g, d, "path")
  }

  test("bit-identical on a disconnected graph with an isolated vertex") {
    val (g1, d1) = TestUtils.tmfgWithD(TestUtils.randomSim(30, 8), 2)
    val (g2, d2) = TestUtils.tmfgWithD(TestUtils.randomSim(25, 9), 1)
    val n = 30 + 25 + 1
    val g = WGraph.fromEdges(n, g1.edges ++ g2.edges.map { case (u, v) => (u + 30, v + 30) })
    val d = SymMatrix.zeros(n)
    for ((u, v) <- g1.edges) d.update(u, v, d1(u, v))
    for ((u, v) <- g2.edges) d.update(u + 30, v + 30, d2(u, v))
    val apsp = Par.withThreads(4)(par => Apsp.allPairs(g, d, par))
    assert(apsp(0, 30).isPosInfinity && apsp(30, 0).isPosInfinity && apsp(0, n - 1).isPosInfinity)
    assertBitExact(g, d, "disconnected")
  }

  /** `row`'s return value, the labels the check and the repair lowered,
    * from every source of `g`.
    */
  private def repairs(g: WGraph, d: SymMatrix): Array[Int] = {
    val e = Apsp.edges(g, d)
    val work = new Apsp.Workspace(e)
    val out = new Array[Double](g.n)
    Array.tabulate(g.n)(src => Apsp.row(e, src, out, 0, work))
  }

  test("bit-identical on a PMFG, which is not chordal, with the repair lowering labels") {
    val s = TestUtils.randomSim(60, 12)
    val g = repro.pmfg.Pmfg.build(s)
    val d = Correlation.dissimilarity(s)
    assertBitExact(g, d, "PMFG")
    val r = repairs(g, d)
    info(s"${r.count(_ > 0)} of ${g.n} sources repaired")
    assert(r.exists(_ > 0), "no source needed a repair")
  }

  test("the sweep alone is exact on TMFGs of generated series: the repair lowers no label") {
    for (seed <- 1L to 3L; prefix <- Seq(1, 10)) {
      val ds = repro.data.TimeSeriesGen.make("sweep", 300, 64, 6, noise = 1.0, seed = seed)
      val (g, d) = TestUtils.tmfgWithD(Par.withThreads(4)(par => Correlation.pearson(ds.data, par)), prefix)
      val r = repairs(g, d)
      assert(r.forall(_ == 0), s"seed $seed prefix $prefix: ${r.count(_ > 0)} sources repaired")
    }
  }

  test("on a TMFG the MCS order is a perfect elimination order with three earlier neighbours") {
    val (g, d) = TestUtils.tmfgWithD(TestUtils.randomSim(200, 13), 5)
    val e = Apsp.edges(g, d)
    assert(e.ord.sorted.sameElements(Array.range(0, g.n)) && (0 until g.n).forall(p => e.pos(e.ord(p)) == p))
    for (p <- 0 until g.n) {
      val earlier = e.pre.slice(e.preOff(p), e.preOff(p + 1))
      assert(earlier.length == math.min(p, 3), s"position $p")
      for (a <- earlier; b <- earlier if a < b) assert(g.hasEdge(e.ord(a), e.ord(b)), s"position $p")
    }
  }

  test("Edges serializes to O(n) bytes, not an n x n array") {
    // with m = 3n - 6 edges the arrays hold 4n + 3m + 2 ints and 3m
    // doubles, about 124n bytes; an n x n matrix of doubles is 8n^2
    val n = 2000
    val (g, d) = TestUtils.tmfgWithD(TestUtils.randomSim(n, 14), 10)
    val buf = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(buf)
    out.writeObject(Apsp.edges(g, d))
    out.close()
    info(s"${buf.size} bytes at n = $n")
    assert(buf.size < 128 * n, s"${buf.size} bytes")
  }

  for ((what, bad) <- Seq("NaN" -> Double.NaN, "Infinity" -> Double.PositiveInfinity, "-0.5" -> -0.5))
    test(s"an edge weight of $what is rejected before any source runs, naming the edge") {
      val (g, d) = TestUtils.tmfgWithD(TestUtils.randomSim(20, 11), 1)
      val (u, v) = g.edges(7)
      d.update(u, v, bad)
      val err = intercept[IllegalArgumentException](Par.withThreads(2)(par => Apsp.allPairs(g, d, par)))
      assert(err.getMessage.contains(s"edge ($u, $v) has dissimilarity $what"), err.getMessage)
      assert(intercept[IllegalArgumentException](TestUtils.sssp(g, d, 0)).getMessage == err.getMessage)
    }

  test("all-zero weights: 0 within a component, +inf across components") {
    val g = WGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5)))
    val apsp = Par.withThreads(2)(par => Apsp.allPairs(g, SymMatrix.zeros(7), par))
    val comp = Array(0, 0, 0, 1, 1, 1, 2)
    for (u <- 0 until 7; v <- 0 until 7)
      assert(apsp(u, v) == (if (comp(u) == comp(v)) 0.0 else Double.PositiveInfinity), s"($u, $v)")
  }
}
