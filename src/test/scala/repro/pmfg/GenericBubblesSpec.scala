package repro.pmfg

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils
import repro.core.{Par, Tmfg, WGraph}

class GenericBubblesSpec extends AnyFunSuite {

  private def tmfg(n: Int, prefix: Int, seed: Long) =
    Par.withThreads(2)(par => Tmfg.build(TestUtils.randomSim(n, seed), prefix, par))

  test("triangle enumeration on K4 finds all four triangles") {
    val g = WGraph.fromEdges(4, for (i <- 0 until 4; j <- i + 1 until 4) yield (i, j))
    val tris = GenericBubbles.triangles(g).map(_.toSet).toSet
    assert(tris == Set(Set(0, 1, 2), Set(0, 1, 3), Set(0, 2, 3), Set(1, 2, 3)))
  }

  test("triangle enumeration on a triangle-free graph is empty") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (3, 0))) // C4
    assert(GenericBubbles.triangles(g).isEmpty)
  }

  test("triangles are deduplicated and sorted") {
    val g = WGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    val tris = GenericBubbles.triangles(g)
    assert(tris.length == 1 && tris(0).toSeq == Seq(0, 1, 2))
  }

  test("TMFG decomposition yields n-3 bubbles, all 4-cliques") {
    for (seed <- 1L to 3L; prefix <- Seq(1, 4)) {
      val res = tmfg(25, prefix, seed)
      val dec = GenericBubbles.decompose(res.graph)
      assert(dec.vertsOf.length == 22, s"seed=$seed prefix=$prefix")
      assert(dec.vertsOf.forall(_.length == 4))
      assert(dec.treeEdges.length == 21)
    }
  }

  test("TMFG decomposition matches the incremental bubble tree") {
    val res = tmfg(30, 1, 5)
    val dec = GenericBubbles.decompose(res.graph)
    val genSets = dec.vertsOf.map(_.toSeq).toSet
    val optSets = (0 until res.tree.numBubbles).map(res.tree.verts(_).sorted.toSeq).toSet
    assert(genSets == optSets)
    // same separating triangles
    val genTris = dec.treeEdges.map(_._3.sorted.toSeq).toSet
    val optTris = (0 until res.tree.numBubbles)
      .filter(_ != res.tree.root).map(res.tree.sepTri(_).sorted.toSeq).toSet
    assert(genTris == optTris)
  }

  test("K4 is a single bubble with no tree edges") {
    val g = WGraph.fromEdges(4, for (i <- 0 until 4; j <- i + 1 until 4) yield (i, j))
    val dec = GenericBubbles.decompose(g)
    assert(dec.vertsOf.length == 1 && dec.treeEdges.isEmpty)
  }

  test("PMFG decomposition: bubbles cover all vertices, tree is connected") {
    val s = TestUtils.randomSim(18, 6)
    val g = Pmfg.build(s)
    val dec = GenericBubbles.decompose(g)
    assert(dec.vertsOf.flatten.toSet == (0 until 18).toSet)
    assert(dec.treeEdges.length == dec.vertsOf.length - 1)
    // PMFG bubbles can be larger than 4-cliques
    assert(dec.vertsOf.forall(_.length >= 4))
  }

  test("directed bubbles always have at least one converging bubble") {
    val s = TestUtils.randomSim(22, 7)
    val g = Pmfg.build(s)
    val bub = GenericBubbles.bubbles(g, s)
    assert(bub.convergingBubbles.nonEmpty)
  }

  test("direction values match Algorithm 3's INVAL/OUTVAL on TMFGs") {
    // cross-validated in DbhtSpec; here check the direction invariant:
    // each tree edge appears exactly once in exactly one out-list
    val res = tmfg(20, 2, 8)
    val s = TestUtils.randomSim(20, 8)
    val bub = GenericBubbles.bubbles(res.graph, s)
    val totalOut = (0 until bub.numBubbles).map(TestUtils.outNbrs(bub)(_).length).sum
    assert(totalOut == bub.numBubbles - 1)
  }

  test("direct fails, naming the bubble and the triangle, when a bubble equals its separating triangle") {
    val g = WGraph.fromEdges(4, for (i <- 0 until 4; j <- i + 1 until 4) yield (i, j))
    val dec = GenericBubbles.Decomposition(Array(Array(0, 1, 2), Array(0, 1, 2, 3)), Array((0, 1, Array(0, 1, 2))))
    val msg = intercept[IllegalArgumentException](GenericBubbles.direct(g, TestUtils.randomSim(4, 1), dec)).getMessage
    assert(msg.contains("bubble 0 has no vertex off its separating triangle 0,1,2"), msg)
  }

  test("separating triangles of a TMFG are exactly the non-root sep triangles") {
    val res = tmfg(15, 1, 9)
    val g = res.graph
    val separating = GenericBubbles.triangles(g)
      .filter(t => !TestUtils.isConnectedExcluding(g, t.toSet))
      .map(_.toSeq).toSet
    val expected = (0 until res.tree.numBubbles)
      .filter(_ != res.tree.root).map(res.tree.sepTri(_).sorted.toSeq).toSet
    assert(separating == expected)
  }
}
