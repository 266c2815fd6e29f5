package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils

class WGraphSpec extends AnyFunSuite {

  private def triangle = WGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))

  test("fromEdges builds sorted adjacency") {
    val g = WGraph.fromEdges(4, Seq((2, 0), (0, 1), (3, 0)))
    assert(g.adj(0).toSeq == Seq(1, 2, 3))
    assert(g.adj(1).toSeq == Seq(0))
  }

  test("fromEdges collapses duplicates and both orientations") {
    val g = WGraph.fromEdges(3, Seq((0, 1), (1, 0), (0, 1)))
    assert(g.numEdges == 1)
  }

  test("fromEdges drops self-loops") {
    val g = WGraph.fromEdges(3, Seq((0, 0), (0, 1)))
    assert(g.numEdges == 1)
  }

  test("hasEdge both directions") {
    val g = triangle
    assert(g.hasEdge(0, 2) && g.hasEdge(2, 0) && !g.hasEdge(0, 0))
  }

  test("edges lists each edge once with u < v") {
    val g = triangle
    assert(g.edges.toSet == Set((0, 1), (0, 2), (1, 2)))
  }

  test("totalWeight sums each edge once") {
    val s = SymMatrix.zeros(3)
    s.update(0, 1, 1.0); s.update(1, 2, 2.0); s.update(0, 2, 4.0)
    assert(triangle.totalWeight(s) == 7.0)
  }

  test("weightedDegrees") {
    val s = SymMatrix.zeros(3)
    s.update(0, 1, 1.0); s.update(1, 2, 2.0); s.update(0, 2, 4.0)
    assert(triangle.weightedDegrees(s).toSeq == Seq(5.0, 3.0, 6.0))
  }

  test("isConnectedExcluding: path graph split by middle vertex") {
    val g = WGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    assert(TestUtils.isConnectedExcluding(g, Set.empty))
    assert(!TestUtils.isConnectedExcluding(g, Set(1)))
  }

  test("isConnectedExcluding: everything excluded is vacuously connected") {
    assert(TestUtils.isConnectedExcluding(triangle, Set(0, 1, 2)))
  }

  test("degree counts neighbors") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (0, 2), (0, 3)))
    assert(TestUtils.degree(g, 0) == 3 && TestUtils.degree(g, 3) == 1)
  }

  test("fromEdges on arrays equals a set-based reference, with repeats, both orientations and self-loops") {
    val rng = new scala.util.Random(12)
    for (n <- Seq(1, 2, 7, 30); m <- Seq(0, 5, 200)) {
      val us = Array.fill(m)(rng.nextInt(n))
      val vs = Array.fill(m)(rng.nextInt(n))
      val g  = WGraph.fromEdges(n, us, vs)
      val ref = Array.fill(n)(Set.empty[Int])
      for (i <- 0 until m if us(i) != vs(i)) { ref(us(i)) += vs(i); ref(vs(i)) += us(i) }
      assert(TestUtils.isCsr(g), s"n=$n m=$m")
      for (u <- 0 until n) assert(g.adj(u).toSeq == ref(u).toSeq.sorted, s"n=$n m=$m row $u")
      assert(g.numEdges == ref.map(_.size).sum / 2)
    }
  }

  test("fromEdges rejects edge arrays of different lengths") {
    val e = intercept[IllegalArgumentException](WGraph.fromEdges(3, Array(0, 1), Array(1)))
    assert(e.getMessage.contains("2 vs 1"))
  }

  test("TMFG (1 and 4 threads) and PMFG graphs are valid CSR") {
    val s = TestUtils.randomSim(40, 13)
    for (threads <- Seq(1, 4); prefix <- Seq(1, 6))
      assert(TestUtils.isCsr(Par.withThreads(threads)(par => Tmfg.build(s, prefix, par)).graph),
        s"threads=$threads prefix=$prefix")
    assert(TestUtils.isCsr(repro.pmfg.Pmfg.build(TestUtils.randomSim(20, 14))))
  }

  test("numEdges on a TMFG-size random graph") {
    val s = TestUtils.randomSim(20, 3)
    Par.withThreads(2) { par =>
      val g = Tmfg.build(s, 1, par).graph
      assert(g.numEdges == 3 * 20 - 6)
    }
  }
}
