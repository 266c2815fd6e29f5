package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils
import repro.pmfg.GenericBubbles

class DbhtSpec extends AnyFunSuite {

  private def pipeline(s: SymMatrix, prefix: Int, threads: Int = 4) =
    Par.withThreads(threads) { par =>
      val d    = Correlation.dissimilarity(s)
      val res  = Tmfg.build(s, prefix, par)
      val apsp = Apsp.allPairs(res.graph, d, par)
      val bub  = Dbht.bubblesFromTmfg(res, s, par)
      val asg  = Dbht.assign(bub, res.graph, s, apsp, par)
      val den  = Dbht.dendrogram(s.n, asg, apsp, par)
      (res, bub, asg, den, apsp)
    }

  test("every vertex gets a group (converging bubble) and a bubble") {
    for (seed <- 1L to 3L; prefix <- Seq(1, 5)) {
      val s = TestUtils.randomSim(40, seed)
      val (_, bub, asg, _, _) = pipeline(s, prefix)
      val conv = bub.convergingBubbles.toSet
      assert(asg.group.forall(conv.contains), s"seed=$seed prefix=$prefix")
      assert(asg.bubble.forall(b => b >= 0 && b < bub.numBubbles))
    }
  }

  test("assigned bubble always contains the vertex") {
    val s = TestUtils.randomSim(35, 2)
    val (_, bub, asg, _, _) = pipeline(s, 3)
    for (v <- 0 until 35)
      assert(bub.vertsOf(asg.bubble(v)).contains(v), s"vertex $v not in its bubble")
  }

  test("a vertex inside a converging bubble is assigned to one containing it") {
    val s = TestUtils.randomSim(30, 3)
    val (_, bub, asg, _, _) = pipeline(s, 1)
    val byVertex = bub.bubblesOfVertex
    val conv = bub.convergingBubbles.toSet
    for (v <- 0 until 30; if byVertex(v).exists(conv.contains))
      assert(byVertex(v).contains(asg.group(v)), s"vertex $v")
  }

  test("reachability: assigned group is reachable from some bubble of the vertex") {
    val s = TestUtils.randomSim(30, 4)
    Par.withThreads(4) { par =>
      val d = Correlation.dissimilarity(s)
      val res = Tmfg.build(s, 2, par)
      val apsp = Apsp.allPairs(res.graph, d, par)
      val bub = Dbht.bubblesFromTmfg(res, s, par)
      val asg = Dbht.assign(bub, res.graph, s, apsp, par)
      val reach = TestUtils.reachSinks(bub)
      val byVertex = bub.bubblesOfVertex
      for (v <- 0 until 30)
        assert(byVertex(v).exists(b => reach(b).contains(asg.group(v)) || b == asg.group(v)),
          s"vertex $v group ${asg.group(v)}")
    }
  }

  test("optimized bubble tree + directions equal the generic quadratic decomposition") {
    for (seed <- 1L to 4L; prefix <- Seq(1, 4)) {
      val s = TestUtils.randomSim(35, seed)
      val (res, bubOpt, _, _, _) = pipeline(s, prefix)
      val bubGen = GenericBubbles.bubbles(res.graph, s)

      // same bubbles as vertex sets
      val optSets = (0 until bubOpt.numBubbles).map(bubOpt.vertsOf(_).sorted.toSeq).toSet
      val genSets = (0 until bubGen.numBubbles).map(bubGen.vertsOf(_).sorted.toSeq).toSet
      assert(optSets == genSets, s"seed=$seed prefix=$prefix bubbles differ")

      // same undirected tree edges (as pairs of vertex sets): each tree
      // edge is one out-edge, at its tail
      def edgeSets(b: Bubbles): Set[Set[Seq[Int]]] =
        (for (x <- 0 until b.numBubbles; y <- TestUtils.outNbrs(b)(x))
          yield Set(b.vertsOf(x).sorted.toSeq, b.vertsOf(y).sorted.toSeq)).toSet
      assert(edgeSets(bubOpt) == edgeSets(bubGen), s"seed=$seed prefix=$prefix tree differs")

      // same directed edges
      def directedSets(b: Bubbles): Set[(Seq[Int], Seq[Int])] =
        (for (x <- 0 until b.numBubbles; y <- TestUtils.outNbrs(b)(x))
          yield (b.vertsOf(x).sorted.toSeq, b.vertsOf(y).sorted.toSeq)).toSet
      assert(directedSets(bubOpt) == directedSets(bubGen), s"seed=$seed prefix=$prefix directions differ")
    }
  }

  test("optimized and generic paths produce identical assignments and dendrogram cuts") {
    for (seed <- 5L to 7L) {
      val s = TestUtils.randomSim(30, seed)
      val d = Correlation.dissimilarity(s)
      Par.withThreads(4) { par =>
        val res  = Tmfg.build(s, 1, par)
        val apsp = Apsp.allPairs(res.graph, d, par)
        val bubO = Dbht.bubblesFromTmfg(res, s, par)
        val bubG = GenericBubbles.bubbles(res.graph, s)
        // map generic bubble ids -> optimized ids via vertex sets
        val optIdOf = (0 until bubO.numBubbles).map(i => bubO.vertsOf(i).sorted.toSeq -> i).toMap
        val asgO = Dbht.assign(bubO, res.graph, s, apsp, par)
        val asgG = Dbht.assign(bubG, res.graph, s, apsp, par)
        for (v <- 0 until 30) {
          assert(optIdOf(bubG.vertsOf(asgG.group(v)).sorted.toSeq) == asgO.group(v), s"seed=$seed v=$v group")
          assert(optIdOf(bubG.vertsOf(asgG.bubble(v)).sorted.toSeq) == asgO.bubble(v), s"seed=$seed v=$v bubble")
        }
        // remap the generic ids onto the optimized numbering so the
        // order-sensitive height assignment sees identical input
        val asgGmapped = Dbht.Assignments(
          asgG.group.map(b => optIdOf(bubG.vertsOf(b).sorted.toSeq)),
          asgG.bubble.map(b => optIdOf(bubG.vertsOf(b).sorted.toSeq)))
        assert(bubG.convergingBubbles.map(b => optIdOf(bubG.vertsOf(b).sorted.toSeq)).sorted
          .sameElements(bubO.convergingBubbles), s"seed=$seed converging bubbles differ")
        val denO = Dbht.dendrogram(30, asgO, apsp, par)
        val denG = Dbht.dendrogram(30, asgGmapped, apsp, par)
        assert(denO.left.sameElements(denG.left) && denO.right.sameElements(denG.right),
          s"seed=$seed structure differs")
        assert(denO.height.sameElements(denG.height), s"seed=$seed heights differ")
        for (k <- Seq(2, 3, 5))
          assert(Ari.ari(denO.cut(k), denG.cut(k)) == 1.0, s"seed=$seed k=$k")
      }
    }
  }

  test("dendrogram is monotone with group roots at height <= 1") {
    for (seed <- 1L to 3L; prefix <- Seq(1, 6)) {
      val s = TestUtils.randomSim(45, seed)
      val (_, _, _, den, _) = pipeline(s, prefix)
      assert(den.isMonotone, s"seed=$seed prefix=$prefix")
    }
  }

  test("top-level heights count groups; root height equals number of groups") {
    val s = TestUtils.randomSim(50, 9)
    val (_, _, asg, den, _) = pipeline(s, 1)
    val nGroups = asg.group.distinct.length
    if (nGroups > 1) assert(den.heightOf(den.root) == nGroups.toDouble)
    else assert(den.heightOf(den.root) <= 1.0)
  }

  test("cut produces the requested number of clusters") {
    val s = TestUtils.randomSim(40, 10)
    val (_, _, _, den, _) = pipeline(s, 5)
    for (k <- Seq(1, 2, 3, 7, 15))
      assert(den.cut(k).distinct.length == k, s"k=$k")
  }

  test("dendrogram identical across thread counts") {
    val s = TestUtils.randomSim(40, 11)
    val (_, _, _, d1, _) = pipeline(s, 4, threads = 1)
    val (_, _, _, d8, _) = pipeline(s, 4, threads = 8)
    assert(d1.left.sameElements(d8.left) && d1.right.sameElements(d8.right))
    assert(d1.height.sameElements(d8.height))
  }

  test("subgroup members stay together below the inter-bubble level") {
    // within a group every intra-bubble merge lies below every
    // inter-bubble merge, so at any cut a cluster's part in a group is a
    // union of whole subgroups (group x bubble) or lies inside one, and
    // once a subgroup is split no cluster spans two subgroups of its group
    val n = 36
    var splitChecks = 0
    for (seed <- 1L to 12L; prefix <- Seq(1, 4)) {
      val (_, _, asg, den, _) = pipeline(TestUtils.randomSim(n, seed), prefix)
      for (k <- 1 to n) {
        val labels = den.cut(k)
        for ((gid, members) <- (0 until n).groupBy(asg.group)) {
          val subgroups = members.groupBy(asg.bubble)
          val split = subgroups.values.exists(_.map(labels).distinct.length > 1)
          if (split) splitChecks += 1
          for ((label, cluster) <- members.groupBy(labels)) {
            val spanned = cluster.map(asg.bubble).distinct
            val where = s"seed=$seed prefix=$prefix k=$k group=$gid cluster=$label"
            if (spanned.length > 1) {
              assert(spanned.forall(b => subgroups(b).forall(labels(_) == label)),
                s"$where: spans subgroups ${spanned.mkString(",")} without containing them whole")
              assert(!split, s"$where: spans two subgroups while a subgroup of the group is split")
            }
          }
        }
      }
    }
    assert(splitChecks > 0, "no cut split a subgroup")
  }

  test("assign falls back to max chi when every reachable converging bubble has an empty V0") {
    // bubbles 0, 1 and 2 converge; 3 -> 2, 4 -> {0, 2}, 5 -> {1, 2}.
    // Bubble 2 = {1,2,3,4} loses each of its vertices to bubble 0 or 1 on
    // chi, so its V0 is empty, and vertex 6 (only in bubble 3) reaches
    // bubble 2 alone: no mean shortest path exists and chi decides
    val vertsOf = Array(Array(0, 1, 2, 3), Array(2, 3, 4, 5), Array(1, 2, 3, 4),
                        Array(3, 4, 5, 6), Array(0, 1, 3, 4), Array(1, 2, 4, 5))
    val outNbrs = Array(Array.emptyIntArray, Array.emptyIntArray, Array.emptyIntArray,
                        Array(2), Array(0, 2), Array(1, 2))
    val bub = TestUtils.bubbles(7, vertsOf, outNbrs)
    val s = SymMatrix.zeros(7)
    for (i <- 0 until 7; j <- i until 7) s.update(i, j, if (i == j) 1.0 else 0.5)
    s.update(0, 1, 0.9); s.update(0, 2, 0.9); s.update(0, 3, 0.9); s.update(4, 5, 0.9)
    val g = WGraph.fromEdges(7, for (i <- 0 until 7; j <- i + 1 until 7) yield (i, j))
    val apsp = Par.withThreads(1)(par => Apsp.allPairs(g, Correlation.dissimilarity(s), par))
    val runs = Seq(1, 4).map(t => Par.withThreads(t)(par => Dbht.assign(bub, g, s, apsp, par)))
    assert(bub.convergingBubbles.toSeq == Seq(0, 1, 2))
    for (asg <- runs) {
      assert(asg.group.toSeq == Seq(0, 0, 0, 0, 1, 1, 2), "only vertex 6 in bubble 2's group")
      assert(asg.bubble(6) == 3)
    }
    assert(runs(0).group.sameElements(runs(1).group) && runs(0).bubble.sameElements(runs(1).bubble))
  }

  /** The message of the failure `Dbht.assign` throws on hand-built
    * bubbles over a complete graph on n vertices.
    */
  private def assignFailure(n: Int, vertsOf: Array[Array[Int]], outNbrs: Array[Array[Int]]): String = {
    val s = SymMatrix.zeros(n)
    for (i <- 0 until n; j <- i until n) s.update(i, j, if (i == j) 1.0 else 0.5 + 0.01 * (i + j))
    val g = WGraph.fromEdges(n, for (i <- 0 until n; j <- i + 1 until n) yield (i, j))
    Par.withThreads(1) { par =>
      val apsp = Apsp.allPairs(g, Correlation.dissimilarity(s), par)
      intercept[IllegalArgumentException](Dbht.assign(TestUtils.bubbles(n, vertsOf, outNbrs), g, s, apsp, par)).getMessage
    }
  }

  test("assign fails, naming the vertex, when a vertex lies in no bubble") {
    // bubbles 0 -> 1 cover vertices 0..4; vertex 5 is in neither
    val msg = assignFailure(6, Array(Array(0, 1, 2, 3), Array(1, 2, 3, 4)), Array(Array(1), Array.emptyIntArray))
    assert(msg.contains("vertex 5 reaches no converging bubble"), msg)
  }

  test("assign fails when the bubbles' out-edges hold a cycle") {
    // 0 -> 1 -> 0: a walk along out-edges never ends at a sink
    val msg = assignFailure(5, Array(Array(0, 1, 2, 3), Array(1, 2, 3, 4)), Array(Array(1), Array(0)))
    assert(msg.contains("the out-edges are not a tree"), msg)
    // the same cycle beside a valid sink 2: the pass back from the sink
    // never reaches bubbles 0 and 1
    val beside = assignFailure(6, Array(Array(0, 1, 2, 3), Array(1, 2, 3, 4), Array(2, 3, 4, 5)),
      Array(Array(1), Array(0), Array.emptyIntArray))
    assert(beside.contains("the out-edges are not a tree"), beside)
  }

  test("convergingBubbles is every bubble with no out-edge, ascending, built once") {
    for (nb <- Seq(1, 2, 50, 300); seed <- 1L to 3L) {
      val rng = new scala.util.Random(seed)
      val outNbrs = Array.fill(nb)(Array.emptyIntArray)
      for (b <- 1 until nb) {
        val p = rng.nextInt(b)
        if (rng.nextBoolean()) outNbrs(p) :+= b else outNbrs(b) :+= p
      }
      val bub = TestUtils.bubbles(nb, Array.tabulate(nb)(Array(_)), outNbrs)
      assert(bub.convergingBubbles.sameElements((0 until nb).filter(outNbrs(_).isEmpty)), s"nb=$nb seed=$seed")
      assert(bub.convergingBubbles eq bub.convergingBubbles)
    }
  }

  test("the reach bitsets equal a walk per bubble, on random directed trees and a star of 130 sinks") {
    // a random tree: bubble b >= 1 hangs under a random earlier bubble,
    // the edge pointing either way
    val words = for (nb <- Seq(1, 2, 50, 300); seed <- 1L to 5L) yield {
      val rng = new scala.util.Random(seed)
      val outNbrs = Array.fill(nb)(Array.emptyIntArray)
      for (b <- 1 until nb) {
        val p = rng.nextInt(b)
        if (rng.nextBoolean()) outNbrs(p) :+= b else outNbrs(b) :+= p
      }
      val bub = TestUtils.bubbles(nb, Array.tabulate(nb)(Array(_)), outNbrs)
      val (bits, walk) = (TestUtils.reachSinks(bub), TestUtils.reachWalk(bub))
      for (b <- 0 until nb) assert(bits(b).sameElements(walk(b)), s"nb=$nb seed=$seed bubble $b")
      (bub.convergingBubbles.length + 63) / 64
    }
    // a star: bubble 0 points to 130 sinks, and bubble 131 points to 0
    val outNbrs = Array.tabulate(132)(b => if (b == 0) (1 to 130).toArray else if (b == 131) Array(0) else Array.emptyIntArray)
    val star = TestUtils.bubbles(132, Array.tabulate(132)(Array(_)), outNbrs)
    val reach = TestUtils.reachSinks(star)
    assert(star.convergingBubbles.sameElements(1 to 130))
    assert(reach(0).sameElements(1 to 130) && reach(131).sameElements(1 to 130))
    for (b <- 1 to 130) assert(reach(b).sameElements(Seq(b)), s"sink $b")
    assert(reach.map(_.toSeq).toSeq == TestUtils.reachWalk(star).map(_.toSeq).toSeq)
    // the random trees' bitsets take one and two words; the star's 130 take three
    assert(words.contains(1) && words.contains(2), s"words per bitset: $words")
  }

  test("the TMFG bubbles are the tree's cliques, not a copy") {
    val s = TestUtils.randomSim(30, 5)
    Par.withThreads(2) { par =>
      val res = Tmfg.build(s, 3, par)
      val bub = Dbht.bubblesFromTmfg(res, s, par)
      assert(bub.verts eq res.tree.cliques)
      assert(bub.off.sameElements(0 to 4 * res.tree.numBubbles by 4))
    }
  }

  test("each group's plan merges within subgroups by ascending bubble id, then across them; heights follow it") {
    // on a symmetric APSP, so that a merge's complete-linkage distance does
    // not depend on which side a pair is read from
    var interRuns = 0
    for (seed <- 1L to 6L; n <- Seq(30, 45, 60); prefix <- Seq(1, 4)) {
      val s = TestUtils.randomSim(n, seed)
      val (res, bub, _, _, apsp) = pipeline(s, prefix)
      val sym = TestUtils.copy(apsp)
      for (i <- 0 until n; j <- i + 1 until n) sym.update(i, j, apsp(i, j))
      val (asg, den) = Par.withThreads(4) { par =>
        val asg = Dbht.assign(bub, res.graph, s, sym, par)
        (asg, Dbht.dendrogram(n, asg, sym, par))
      }
      var offset = 0 // the group's first merge in the dendrogram
      for (members <- (0 until n).groupBy(asg.group).toSeq.sortBy(_._1).map(_._2.toArray)) {
        val where = s"seed=$seed n=$n prefix=$prefix group of ${members.mkString(",")}"
        val m = members.length
        val pairs = Dbht.planGroup(members.map(asg.bubble), TestUtils.block(sym, members))
        assert(pairs.length == 2 * (m - 1), where)
        val leaves = Array.tabulate(m)(Set(_)).toBuffer
        // each merge as (bubble id of an intra-bubble merge, or -1 for an
        // inter-bubble one; its complete-linkage distance)
        val merges = for (t <- 0 until m - 1) yield {
          val (a, b) = (leaves(pairs(2 * t)), leaves(pairs(2 * t + 1)))
          leaves += a ++ b
          val bubbles = (a ++ b).map(x => asg.bubble(members(x)))
          val dist = (for (x <- a; y <- b) yield sym(members(x), members(y))).max
          (if (bubbles.size == 1) bubbles.head else -1, dist)
        }
        val intra = merges.takeWhile(_._1 >= 0)
        val inter = merges.drop(intra.length)
        assert(intra.map(_._1) == intra.map(_._1).sorted, s"$where: intra-bubble runs out of bubble order")
        assert(inter.forall(_._1 == -1), s"$where: an intra-bubble merge after an inter-bubble one")
        assert(inter.length == members.map(asg.bubble).distinct.length - 1, where)
        if (inter.nonEmpty) interRuns += 1
        for (run <- intra.groupBy(_._1).values.toSeq :+ inter; t <- 1 until run.length)
          assert(run(t - 1)._2 <= run(t)._2, s"$where: distance decreases within a run")
        // the dendrogram takes the plan as it is, merge t at height 1/(m-1-t)
        def global(x: Int): Int = if (x < m) members(x) else n + offset + (x - m)
        for (t <- 0 until m - 1) {
          assert(den.left(offset + t) == global(pairs(2 * t)) && den.right(offset + t) == global(pairs(2 * t + 1)), where)
          assert(den.height(offset + t) == 1.0 / (m - 1 - t), where)
        }
        offset += m - 1
      }
    }
    assert(interRuns > 0, "no group has two subgroups")
  }

  /** The Appendix example (Fig. 12-13): 6 points, ground truth
    * {0,1,2} / {3,4,5}, corr(2,5)=0.42 slightly above corr(2,1)=0.41.
    * PREFIX=1 inserts 2 into a face of 5's bubble ({0,4,5}) and cannot
    * recover the ground truth; PREFIX=3 inserts 2 and 5 in one round, 2
    * goes to {0,1,4}, and the cut at k=2 recovers the truth exactly.
    */
  private def appendixMatrix: SymMatrix = {
    val s = SymMatrix.zeros(6)
    for (i <- 0 until 6) s.update(i, i, 1.0)
    s.update(0, 1, 0.80); s.update(0, 2, 0.60); s.update(1, 2, 0.41)
    s.update(3, 4, 0.80); s.update(3, 5, 0.70); s.update(4, 5, 0.75)
    s.update(0, 3, 0.50); s.update(0, 4, 0.55); s.update(0, 5, 0.20)
    s.update(1, 3, 0.45); s.update(1, 4, 0.50); s.update(1, 5, 0.10)
    s.update(2, 3, 0.10); s.update(2, 4, 0.35); s.update(2, 5, 0.42)
    s
  }

  test("appendix example: seed clique and insertion faces match the paper's walkthrough") {
    val s = appendixMatrix
    Par.withThreads(2) { par =>
      val r1 = Tmfg.build(s, 1, par)
      assert(r1.insertionOrder.take(4).toSet == Set(0, 1, 3, 4))
      assert(r1.insertionOrder.drop(4).toSeq == Seq(5, 2)) // 5 first, then 2
      // PREFIX=1: vertex 2 attaches to 5 (edge 2-5 exists)
      assert(r1.graph.hasEdge(2, 5))
      val r3 = Tmfg.build(s, 3, par)
      // PREFIX=3: both inserted in the first round; 2 goes to {0,1,4}
      assert(r3.rounds == 1)
      assert(!r3.graph.hasEdge(2, 5))
      assert(r3.graph.hasEdge(2, 0) && r3.graph.hasEdge(2, 1) && r3.graph.hasEdge(2, 4))
    }
  }

  test("appendix example: PREFIX=3 recovers the ground truth, PREFIX=1 does not") {
    val s = appendixMatrix
    val truth = Array(0, 0, 0, 1, 1, 1)
    val (_, _, _, den1, _) = pipeline(s, 1, threads = 2)
    val (_, _, _, den3, _) = pipeline(s, 3, threads = 2)
    assert(Ari.ari(den3.cut(2), truth) == 1.0, s"prefix 3 got ${den3.cut(2).toSeq}")
    assert(Ari.ari(den1.cut(2), truth) < 1.0, s"prefix 1 got ${den1.cut(2).toSeq}")
  }

  test("DBHT recovers clearly separated correlation blocks") {
    // 3 blocks of 10 with high intra / low inter correlation + noise
    val n = 30
    val rng = new scala.util.Random(99)
    val s = SymMatrix.zeros(n)
    for (i <- 0 until n) s.update(i, i, 1.0)
    for (i <- 0 until n; j <- i + 1 until n) {
      val same = (i / 10) == (j / 10)
      s.update(i, j, (if (same) 0.7 else 0.1) + rng.nextDouble() * 0.05)
    }
    val truth = Array.tabulate(n)(_ / 10)
    for (prefix <- Seq(1, 3)) {
      val (_, _, _, den, _) = pipeline(s, prefix)
      val score = Ari.ari(den.cut(3), truth)
      // DBHT gives no recovery guarantee; demand strong-but-not-perfect
      // agreement (batched insertion can blur one block boundary)
      assert(score > 0.55, s"prefix=$prefix ARI=$score")
    }
  }
}
