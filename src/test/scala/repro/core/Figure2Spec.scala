package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The paper's Figure 2 worked example: a 7-vertex TMFG whose edges have
  * weights in {0.8, 0.4, 0.2} (with w(0,1)=0.8, w(2,3)=0.4, w(0,6)=0.2
  * given in the caption), bubble tree b3 -> b2 <- {b1, b4}, a single
  * converging bubble b2, and bubble assignments {2,4}->b1, {0,3,6}->b3,
  * {1,5}->b4 (Fig. 2c / Examples 2-4).
  *
  * The figure's exact edge shades are not recoverable from the text, so
  * we search the 3^12 completions of the three given weights for one
  * consistent with every stated conclusion, then run the *full* DBHT
  * pipeline on it and check the example end to end.
  */
class Figure2Spec extends AnyFunSuite {

  // TMFG edges from Example 1's construction:
  // K4 {0,1,2,4}; insert 3 -> {0,1,2}; 5 -> {1,2,3}; 6 -> {0,1,3}
  private val edges = Vector(
    (0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 4), // seed clique
    (3, 0), (3, 1), (3, 2),                         // vertex 3
    (5, 1), (5, 2), (5, 3),                         // vertex 5
    (6, 0), (6, 1), (6, 3))                         // vertex 6

  private val fixed = Map((0, 1) -> 0.8, (2, 3) -> 0.4, (0, 6) -> 0.2)
  private val free  = edges.filterNot(e =>
    fixed.contains(e) || fixed.contains((e._2, e._1)))
  private val choices = Array(0.8, 0.4, 0.2)

  private def buildTree(): (BubbleTree, WGraph) = {
    // b1 = {0,1,2,4}; 3 into the outer face {0,1,2} makes b2 the root,
    // 5 into {1,2,3} hangs b4 under b2, 6 into {0,1,3} makes b3 the root
    val tree = new BubbleTree(
      cliques = Array(0, 1, 2, 4, 0, 1, 2, 3, 1, 2, 3, 5, 0, 1, 3, 6),
      parent = Array(1, 3, 1, -1), root = 3)
    (tree, WGraph.fromEdges(7, edges))
  }

  private def matrixFor(assign: Array[Double]): SymMatrix = {
    val s = SymMatrix.zeros(7)
    for (i <- 0 until 7) s.update(i, i, 1.0)
    for (((u, v), w) <- fixed) s.update(u, v, w)
    for ((e, w) <- free.zip(assign)) s.update(e._1, e._2, w)
    s
  }

  // bubble ids as laid out above: b1=0, b2=1, b4=2, b3=3
  private val B1 = 0; private val B2 = 1; private val B4 = 2; private val B3 = 3

  private def consistent(s: SymMatrix, tree: BubbleTree, g: WGraph, par: Par): Boolean = {
    val wdeg = g.weightedDegrees(s)
    val towardChild = BubbleDirections.compute(tree, s, wdeg, par)
    // all three edges directed into b2: child b1 -> parent b2 (towardChild
    // false), child b4 -> parent b2 (false), parent b3 -> child b2 (true)
    if (towardChild(B1) || towardChild(B4) || !towardChild(B2)) return false
    val bub = Dbht.bubblesFromTmfg(TmfgResult(g, tree, 3, Array(0, 1, 2, 4, 3, 5, 6)), s, par)
    if (!bub.convergingBubbles.sameElements(Array(B2))) return false
    val d = Correlation.dissimilarity(s)
    val apsp = Apsp.allPairs(g, d, par)
    val asg = Dbht.assign(bub, g, s, apsp, par)
    val expectedBubble = Map(0 -> B3, 1 -> B4, 2 -> B1, 3 -> B3, 4 -> B1, 5 -> B4, 6 -> B3)
    (0 until 7).forall(v => asg.bubble(v) == expectedBubble(v))
  }

  test("a {0.8,0.4,0.2} weight completion reproduces Figure 2's structure end to end") {
    Par.withThreads(1) { par =>
      val (tree, g) = buildTree()
      val n = free.length
      var found: SymMatrix = null
      val assign = new Array[Double](n)
      def rec(i: Int): Unit = {
        if (found != null) return
        if (i == n) {
          val s = matrixFor(assign)
          if (consistent(s, tree, g, par)) found = s
        } else {
          for (c <- choices if found == null) { assign(i) = c; rec(i + 1) }
        }
      }
      rec(0)
      assert(found != null, "no weight completion consistent with Figure 2 found")

      // run the full pipeline on the found matrix and check the example
      val s = found
      val d = Correlation.dissimilarity(s)
      val apsp = Apsp.allPairs(g, d, par)
      val bub = Dbht.bubblesFromTmfg(TmfgResult(g, tree, 3, Array(0, 1, 2, 4, 3, 5, 6)), s, par)
      val asg = Dbht.assign(bub, g, s, apsp, par)
      // single group (the one converging bubble b2)
      assert(asg.group.distinct.toSeq == Seq(B2))
      // Example 4's subgroups: {2,4} in b1, {0,3,6} in b3, {1,5} in b4
      val byBubble = (0 until 7).groupBy(asg.bubble).view.mapValues(_.toSet).toMap
      assert(byBubble(B1) == Set(2, 4) && byBubble(B3) == Set(0, 3, 6) && byBubble(B4) == Set(1, 5))
      // dendrogram: 6 merges; cutting at 3 recovers the three subgroups
      val den = Dbht.dendrogram(7, asg, apsp, par)
      assert(den.isMonotone)
      val labels = den.cut(3)
      val clusters = (0 until 7).groupBy(labels).values.map(_.toSet).toSet
      assert(clusters == Set(Set(2, 4), Set(0, 3, 6), Set(1, 5)),
        s"cut(3) gave $clusters")
    }
  }
}
