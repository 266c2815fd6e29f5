package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils

class BubbleTreeSpec extends AnyFunSuite {

  private def build(n: Int, prefix: Int, seed: Long = 1): TmfgResult =
    Par.withThreads(4)(par => Tmfg.build(TestUtils.randomSim(n, seed), prefix, par))

  test("TMFG over n vertices yields exactly n-3 bubbles") {
    for (n <- Seq(4, 5, 10, 50); prefix <- Seq(1, 5)) {
      val res = build(n, prefix, seed = n)
      assert(res.tree.numBubbles == n - 3, s"n=$n prefix=$prefix")
    }
  }

  test("every bubble is a 4-clique in the TMFG") {
    val res = build(40, 3)
    for (b <- 0 until res.tree.numBubbles) {
      val vs = res.tree.verts(b)
      assert(vs.length == 4)
      for (i <- 0 until 4; j <- i + 1 until 4)
        assert(res.graph.hasEdge(vs(i), vs(j)), s"bubble $b missing edge ${vs(i)}-${vs(j)}")
    }
  }

  test("bubble tree is a tree: n-4 edges, connected from root") {
    val res = build(30, 4)
    val tree = res.tree
    val edgeCount = (0 until tree.numBubbles).count(tree.parent(_) != -1)
    assert(edgeCount == tree.numBubbles - 1)
    assert(tree.topoOrder.length == tree.numBubbles) // topoOrder asserts connectivity
  }

  test("non-root bubbles share exactly their separating triangle with the parent") {
    val res = build(35, 6)
    val tree = res.tree
    for (b <- 0 until tree.numBubbles; if b != tree.root) {
      val shared = tree.verts(b).toSet.intersect(tree.verts(tree.parent(b)).toSet)
      assert(shared == tree.sepTri(b).toSet, s"bubble $b")
      assert(!shared.contains(tree.innerVert(b)))
    }
  }

  test("each bubble has at most 3 children") {
    for (prefix <- Seq(1, 8)) {
      val res = build(60, prefix, seed = prefix)
      val tree = res.tree
      for (b <- 0 until tree.numBubbles)
        assert(tree.children(b).length <= 3, s"bubble $b has ${tree.children(b).length} children")
    }
  }

  test("separating triangles actually separate the TMFG") {
    val res = build(25, 1)
    val tree = res.tree
    for (b <- 0 until tree.numBubbles; if b != tree.root) {
      val tri = tree.sepTri(b).toSet
      assert(!TestUtils.isConnectedExcluding(res.graph, tri), s"triangle of bubble $b does not separate")
    }
  }

  test("descendant invariant: subtree vertices lie inside the separating triangle") {
    val res = build(30, 1)
    val tree = res.tree
    val g = res.graph
    for (b <- 0 until tree.numBubbles; if b != tree.root) {
      // vertices strictly interior to sepTri(b) per BFS from innerVert
      val tri = tree.sepTri(b)
      val (interior, _) = interiorOf(g, tri, tree.innerVert(b))
      // collect subtree inner vertices
      val sub = collection.mutable.Set[Int]()
      def rec(x: Int): Unit = { sub += tree.innerVert(x); tree.children(x).foreach(rec) }
      rec(b)
      assert(sub == interior, s"bubble $b: subtree=$sub interior=$interior")
    }
  }

  private def interiorOf(g: WGraph, tri: Array[Int], seed: Int): (collection.mutable.Set[Int], Unit) = {
    val tset = tri.toSet
    val seen = collection.mutable.Set[Int]() ++ tset + seed
    val interior = collection.mutable.Set(seed)
    val queue = collection.mutable.Queue(seed)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      for (w <- g.adj(u); if !seen.contains(w)) { seen += w; interior += w; queue.enqueue(w) }
    }
    (interior, ())
  }

  test("paper Example 1: inserting into the outer face re-roots the tree") {
    // Reproduce the paper's walk-through directly in the flat layout:
    // start with C = {0,1,2,4}, outer face {0,1,2}; insert 3 into the
    // outer face (b2 becomes the root), then 5 into the inner face
    // {1,2,3} of b2 and 6 into the (new) outer face {0,1,3} of b2.
    val tree = new BubbleTree(
      cliques = Array(0, 1, 2, 4, 0, 1, 2, 3, 1, 2, 3, 5, 0, 1, 3, 6),
      parent = Array(1, 3, 1, -1), root = 3)
    val b1 = 0; val b2 = 1; val b4 = 2; val b3 = 3

    assert(tree.root == b3)
    assert(tree.parent(b2) == b3)
    assert(tree.parent(b1) == b2 && tree.parent(b4) == b2)
    assert(tree.children(b2).toSet == Set(b1, b4))
    assert(tree.innerVert(b1) == 4)
    assert(tree.innerVert(b2) == 2)
    assert(tree.innerVert(b4) == 5)
    // creation order was b1, b2, b4, b3 -> depths 2, 1, 2, 0: BFS from b3
    // meets b2, then its children b1 and b4
    assert(tree.topoOrder.toSeq == Seq(b3, b2, b1, b4))
  }

  test("directions match brute-force BFS interior/exterior computation") {
    for (seed <- 1L to 4L; prefix <- Seq(1, 6)) {
      val s = TestUtils.randomSim(30, seed)
      val res = Par.withThreads(4)(par => Tmfg.build(s, prefix, par))
      val wdeg = res.graph.weightedDegrees(s)
      val towardChild = Par.withThreads(4)(par =>
        BubbleDirections.compute(res.tree, s, wdeg, par))
      val tree = res.tree
      for (b <- 0 until tree.numBubbles; if b != tree.root) {
        val (inV, outV) = TestUtils.bruteInOutVals(res.graph, s, tree.sepTri(b), tree.innerVert(b))
        assert(towardChild(b) == (inV > outV),
          s"seed=$seed prefix=$prefix bubble=$b in=$inV out=$outV")
      }
    }
  }

  test("directions identical across thread counts") {
    val s = TestUtils.randomSim(50, 12)
    val res = Par.withThreads(4)(par => Tmfg.build(s, 5, par))
    val wdeg = res.graph.weightedDegrees(s)
    val d1 = Par.withThreads(1)(par => BubbleDirections.compute(res.tree, s, wdeg, par))
    val d8 = Par.withThreads(8)(par => BubbleDirections.compute(res.tree, s, wdeg, par))
    assert(d1.sameElements(d8))
  }

  test("out-degree + converging bubbles are consistent") {
    val s = TestUtils.randomSim(40, 8)
    val res = Par.withThreads(2)(par => Tmfg.build(s, 3, par))
    val bub = Par.withThreads(2)(par => Dbht.bubblesFromTmfg(res, s, par))
    val conv = bub.convergingBubbles
    assert(conv.nonEmpty, "a finite directed tree must have a sink")
    for (b <- conv) assert(TestUtils.outNbrs(bub)(b).isEmpty)
    // total out-degree == number of edges
    val total = TestUtils.outNbrs(bub).map(_.length).sum
    assert(total == res.tree.numBubbles - 1)
  }

  test("single-bubble tree has no directions and is its own converging bubble") {
    val s = TestUtils.randomSim(4, 3)
    val res = Par.withThreads(1)(par => Tmfg.build(s, 1, par))
    val bub = Par.withThreads(1)(par => Dbht.bubblesFromTmfg(res, s, par))
    assert(bub.convergingBubbles.toSeq == Seq(0))
  }

  test("the constructor rejects cliques without 4 entries per bubble") {
    intercept[IllegalArgumentException](new BubbleTree(Array(0, 1, 2, 3, 4, 5, 6), Array(1, -1), 1))
    intercept[IllegalArgumentException](new BubbleTree(Array(0, 1, 2), Array(-1), 0))
  }

  test("the flat layout records the TMFG's own insertions: the seed, then face + vertex") {
    var reRooted = 0
    for (n <- Seq(5, 30, 200); prefix <- Seq(1, 7); seed <- 1L to 2L) {
      val res = build(n, prefix, seed)
      val tree = res.tree
      val what = s"n=$n prefix=$prefix seed=$seed"
      assert(tree.verts(0).toSet == res.insertionOrder.take(4).toSet, what)
      for (b <- 1 until tree.numBubbles) {
        val vs = tree.verts(b)
        assert(vs(3) == res.insertionOrder(b + 3), s"$what bubble $b")
        for ((x, y) <- Seq((vs(0), vs(1)), (vs(0), vs(2)), (vs(1), vs(2))))
          assert(res.graph.hasEdge(x, y), s"$what bubble $b: face misses edge $x-$y")
      }
      for (b <- 0 until tree.numBubbles; if b != tree.root && tree.parent(b) > b) {
        reRooted += 1
        val tri = tree.sepTri(b).toSet
        assert(tri == tree.verts(tree.parent(b)).take(3).toSet, s"$what bubble $b")
        assert(tree.verts(b).toSet - tree.innerVert(b) == tri, s"$what bubble $b")
      }
    }
    assert(reRooted > 0, "no input re-roots the tree, so the old-root branch of innerVert goes untested")
  }
}
