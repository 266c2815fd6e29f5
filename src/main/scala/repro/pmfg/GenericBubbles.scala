package repro.pmfg

import repro.core.{Bubbles, SymMatrix, WGraph}
import scala.collection.mutable.ArrayBuffer

/** The original (quadratic) bubble decomposition of Song et al. 2011/2012,
  * used by the SEQ-TDBHT / PMFG-DBHT baselines and as an equality oracle
  * for the paper's optimized O(n) TMFG bubble tree.
  *
  * Steps, exactly as the paper describes the original algorithm (§V-A,
  * §V-B): enumerate all 3-cliques; for each, test by BFS whether removing
  * its three vertices disconnects the graph (separating triangles);
  * recursively split the graph at separating triangles into bubbles;
  * direct each bubble-tree edge by comparing the triangle's total edge
  * weight into each side (computed by BFS per triangle).
  */
object GenericBubbles {

  /** All 3-cliques {a,b,c} with a < b < c. */
  def triangles(g: WGraph): Array[Array[Int]] = {
    val out = new ArrayBuffer[Array[Int]]()
    for ((u, v) <- g.edges) {
      // common neighbors greater than v (dedupe): u < v < w
      val au = g.adj(u)
      var k = 0
      while (k < au.length) {
        val w = au(k)
        if (w > v && g.hasEdge(v, w)) out += Array(u, v, w)
        k += 1
      }
    }
    out.toArray
  }

  /** Connected components of the subgraph induced on `vs` after removing
    * the vertices of `tri`.
    */
  private def componentsExcluding(g: WGraph, vs: Array[Int], tri: Array[Int]): Array[Array[Int]] = {
    val inSet = new java.util.HashSet[Integer]()
    vs.foreach(v => inSet.add(v))
    tri.foreach(v => inSet.remove(v))
    val seen = new java.util.HashSet[Integer]()
    val comps = new ArrayBuffer[Array[Int]]()
    for (start <- vs; if inSet.contains(start) && !seen.contains(start)) {
      val comp = new ArrayBuffer[Int]()
      val queue = new java.util.ArrayDeque[Integer]()
      queue.add(start); seen.add(start)
      while (!queue.isEmpty) {
        val u = queue.poll().intValue()
        comp += u
        for (w <- g.adj(u)) if (inSet.contains(w) && seen.add(w)) queue.add(w)
      }
      comps += comp.toArray
    }
    comps.toArray
  }

  /** The undirected bubble decomposition: bubbles plus, per bubble-tree
    * edge, the separating triangle it crosses.
    */
  final case class Decomposition(vertsOf: Array[Array[Int]],
                                 treeEdges: Array[(Int, Int, Array[Int])]) // (bubbleA, bubbleB, triangle)

  def decompose(g: WGraph): Decomposition = {
    val allTris = triangles(g)
    // globally separating triangles (BFS per triangle — the Theta(n^2) step)
    val separating = allTris.filter { t =>
      componentsExcluding(g, (0 until g.n).toArray, t).length >= 2
    }

    val bubbles  = new ArrayBuffer[Array[Int]]()
    val treeEdges = new ArrayBuffer[(Int, Int, Array[Int])]()

    // recursive split; returns ids of bubbles created for this piece
    def rec(vs: Array[Int], tris: Array[Array[Int]]): Array[Int] = {
      tris.headOption match {
        case None =>
          bubbles += vs.sorted
          Array(bubbles.length - 1)
        case Some(_) =>
          // pick a triangle that separates THIS piece (a globally
          // separating triangle need not separate a sub-piece)
          val vset = vs.toSet
          val inPiece = tris.filter(t => t.forall(vset.contains))
          var chosen: Array[Int] = null
          var comps: Array[Array[Int]] = null
          var rest = new ArrayBuffer[Array[Int]]()
          var i = 0
          while (chosen == null && i < inPiece.length) {
            val t = inPiece(i)
            val cs = componentsExcluding(g, vs, t)
            if (cs.length >= 2) { chosen = t; comps = cs }
            else rest += t
            i += 1
          }
          if (chosen == null) {
            bubbles += vs.sorted
            Array(bubbles.length - 1)
          } else {
            require(comps.length == 2,
              s"separating triangle ${chosen.mkString(",")} splits a maximal planar piece into ${comps.length} > 2 parts")
            // remaining candidate triangles are routed to the side
            // containing them (they cannot straddle the cut)
            val remaining = (rest ++ inPiece.drop(i)).toArray
            val ids = comps.map { c =>
              val side = (c ++ chosen).sorted
              val sset = side.toSet
              rec(side, remaining.filter(t => t.forall(sset.contains)))
            }
            // the tree edge for `chosen` links the unique bubble on each
            // side containing all three of its vertices
            val tset = chosen.toSet
            val ends = ids.map { sideIds =>
              val holders = sideIds.filter(b => tset.subsetOf(bubbles(b).toSet))
              require(holders.length == 1,
                s"triangle ${chosen.mkString(",")} contained in ${holders.length} bubbles on one side")
              holders.head
            }
            treeEdges += ((ends(0), ends(1), chosen))
            ids.flatten
          }
      }
    }

    rec((0 until g.n).toArray, separating)
    Decomposition(bubbles.toArray, treeEdges.toArray)
  }

  /** Direct each bubble-tree edge by comparing the separating triangle's
    * total edge weight to each side, computed by BFS (the original
    * quadratic algorithm). The edge points toward the side with the
    * strictly larger connection value (ties point to side B, matching the
    * optimized algorithm's INVAL > OUTVAL rule where side A is the
    * interior).
    */
  def direct(g: WGraph, s: SymMatrix, dec: Decomposition): Bubbles = {
    // one (tail, head) pair per tree edge
    val (tail, head) = dec.treeEdges.map { case (ba, bb, tri) =>
      // side containing bubble ba's non-triangle vertices
      val tset = tri.toSet
      val seedA = dec.vertsOf(ba).find(v => !tset.contains(v))
      require(seedA.nonEmpty, s"bubble $ba has no vertex off its separating triangle ${tri.mkString(",")}")
      val sideA = componentsExcluding(g, (0 until g.n).toArray, tri).find(_.contains(seedA.get)).get.toSet
      var valA = 0.0
      var valB = 0.0
      for (u <- tri; w <- g.adj(u); if !tset.contains(w)) {
        if (sideA.contains(w)) valA += s(u, w) else valB += s(u, w)
      }
      // INVAL > OUTVAL directs toward the interior; here side A is ba's side
      if (valA > valB) (bb, ba) else (ba, bb)
    }.unzip
    Bubbles(g.n, dec.vertsOf.scanLeft(0)(_ + _.length), dec.vertsOf.flatten, tail, head)
  }

  /** Full generic pipeline: decomposition + direction. */
  def bubbles(g: WGraph, s: SymMatrix): Bubbles = direct(g, s, decompose(g))
}
