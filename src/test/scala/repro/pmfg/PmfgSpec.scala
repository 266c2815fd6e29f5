package repro.pmfg

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils
import repro.core.{Par, Tmfg}

class PmfgSpec extends AnyFunSuite {

  test("PMFG has exactly 3n-6 edges") {
    for (n <- Seq(5, 10, 25)) {
      val g = Pmfg.build(TestUtils.randomSim(n, n))
      assert(g.numEdges == 3 * n - 6, s"n=$n")
    }
  }

  test("PMFG is planar") {
    val g = Pmfg.build(TestUtils.randomSim(20, 1))
    assert(Planarity.isPlanar(20, g.edges))
  }

  test("PMFG is connected") {
    val g = Pmfg.build(TestUtils.randomSim(18, 2))
    assert(TestUtils.isConnectedExcluding(g, Set.empty))
  }

  test("the heaviest edge is always kept") {
    val s = TestUtils.randomSim(15, 3)
    val (bu, bv) = (for (i <- 0 until 15; j <- i + 1 until 15) yield (i, j))
      .maxBy { case (i, j) => s(i, j) }
    val g = Pmfg.build(s)
    assert(g.hasEdge(bu, bv))
  }

  test("the first five heaviest edges are kept (cannot violate planarity)") {
    val s = TestUtils.randomSim(15, 4)
    val top = (for (i <- 0 until 15; j <- i + 1 until 15) yield (i, j))
      .sortBy { case (i, j) => -s(i, j) }.take(5)
    val g = Pmfg.build(s)
    for ((u, v) <- top) assert(g.hasEdge(u, v), s"missing top edge ($u,$v)")
  }

  test("PMFG total weight >= TMFG total weight (PMFG is the greedier filter)") {
    // not a theorem, but holds overwhelmingly on random matrices; the
    // paper reports TMFG edge sums at 92-100.3% of PMFG's
    var wins = 0
    for (seed <- 1L to 5L) {
      val s = TestUtils.randomSim(20, seed * 7)
      val pm = Pmfg.build(s).totalWeight(s)
      val tm = Par.withThreads(2)(par => Tmfg.build(s, 1, par)).graph.totalWeight(s)
      if (pm >= tm * 0.999) wins += 1
      assert(tm >= 0.8 * pm, s"seed=$seed TMFG weight $tm far below PMFG $pm")
    }
    assert(wins >= 4)
  }

  test("n=4 PMFG is K4") {
    val g = Pmfg.build(TestUtils.randomSim(4, 5))
    assert(g.numEdges == 6)
  }

  test("n=3 PMFG is the triangle") {
    val g = Pmfg.build(TestUtils.randomSim(3, 6))
    assert(g.numEdges == 3)
  }

  test("PMFG is maximal: adding any non-edge breaks planarity") {
    val s = TestUtils.randomSim(12, 7)
    val g = Pmfg.build(s)
    for {
      u <- 0 until 12; v <- u + 1 until 12
      if !g.hasEdge(u, v)
    } assert(!Planarity.isPlanar(12, g.edges :+ ((u, v))))
  }
}
