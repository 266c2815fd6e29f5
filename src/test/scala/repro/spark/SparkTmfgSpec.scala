package repro.spark

import repro.{SparkSpec, TestUtils}
import repro.core.{Par, SymMatrix, Tmfg}

class SparkTmfgSpec extends SparkSpec {

  test("distributed TMFG equals the kernel TMFG (prefix 1)") {
    val s = TestUtils.randomSim(40, 1)
    val kernel = Par.withThreads(4)(par => Tmfg.build(s, 1, par))
    val dist = onSpark(Tmfg.build(s, 1, _))
    assert(dist.graph.edges == kernel.graph.edges)
    assert(dist.insertionOrder.sameElements(kernel.insertionOrder))
    assert(dist.rounds == kernel.rounds)
  }

  test("distributed TMFG equals the kernel TMFG (prefix 5)") {
    val s = TestUtils.randomSim(45, 2)
    val kernel = Par.withThreads(4)(par => Tmfg.build(s, 5, par))
    val dist = onSpark(Tmfg.build(s, 5, _))
    assert(dist.graph.edges == kernel.graph.edges)
    assert(dist.insertionOrder.sameElements(kernel.insertionOrder))
    assert(dist.rounds == kernel.rounds)
  }

  test("distributed bubble tree matches the kernel bubble tree") {
    val s = TestUtils.randomSim(30, 3)
    val kernel = Par.withThreads(2)(par => Tmfg.build(s, 3, par))
    val dist = onSpark(Tmfg.build(s, 3, _))
    assert(dist.tree.numBubbles == kernel.tree.numBubbles)
    assert(dist.tree.root == kernel.tree.root)
    for (b <- 0 until dist.tree.numBubbles) {
      assert(dist.tree.verts(b).sameElements(kernel.tree.verts(b)))
      assert(dist.tree.parent(b) == kernel.tree.parent(b))
    }
  }

  test("distributed TMFG keeps the structural invariants") {
    val s = TestUtils.randomSim(25, 4)
    val dist = onSpark(Tmfg.build(s, 2, _))
    assert(dist.graph.numEdges == 3 * 25 - 6)
    assert(repro.pmfg.Planarity.isPlanar(25, dist.graph.edges))
  }

  /** Spark output equals `Tmfg.build` on 1 and 4 threads: edges,
    * insertion order, rounds and bubble parents. */
  private def assertEqualsKernel(s: SymMatrix, prefix: Int): Unit = {
    val dist = onSpark(Tmfg.build(s, prefix, _))
    for (threads <- Seq(1, 4)) {
      val kernel = Par.withThreads(threads)(par => Tmfg.build(s, prefix, par))
      val what = s"prefix=$prefix threads=$threads"
      assert(dist.graph.edges == kernel.graph.edges, what)
      assert(dist.insertionOrder.sameElements(kernel.insertionOrder), what)
      assert(dist.rounds == kernel.rounds, what)
      assert(dist.tree.numBubbles == kernel.tree.numBubbles, what)
      assert(dist.tree.root == kernel.tree.root, what)
      for (b <- 0 until dist.tree.numBubbles) assert(dist.tree.parent(b) == kernel.tree.parent(b), what)
    }
  }

  test("distributed TMFG equals the kernel TMFG when conflicts widen the batch selection") {
    // TmfgSpec shows that this matrix makes selectBatch widen at prefix 8
    assertEqualsKernel(TestUtils.hubSim(200, 24, 3), 8)
  }

  test("distributed TMFG equals the kernel TMFG with exact gain ties (prefix 1 and 4)") {
    val n = 40
    val s = TestUtils.quantisedSim(n, 6)
    // the matrix really has ties: some remaining vertices share a gain
    val gains = (3 until n).map(v => s(0, v) + s(1, v) + s(2, v))
    assert(gains.distinct.size < gains.size)
    for (prefix <- Seq(1, 4)) assertEqualsKernel(s, prefix)
  }
}
