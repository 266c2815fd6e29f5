package repro.core

import scala.collection.mutable.ArrayBuffer

/** Rooted bubble tree for a TMFG (paper §V-A, Algorithm 2).
  *
  * Every vertex insertion during TMFG construction creates exactly one
  * bubble (a 4-clique) and one tree edge, so for an n-vertex TMFG there
  * are n-3 bubbles. Each non-root bubble stores the separating triangle
  * it shares with its parent (`sepTri`); the invariant maintained by
  * construction is that all descendants of the edge (parent(b), b) lie in
  * the interior of that separating triangle.
  *
  * The root can change during construction: inserting into the *outer*
  * face makes the new bubble the parent of the old root.
  */
final class BubbleTree(val n: Int) {
  val maxBubbles: Int = math.max(1, n - 3)

  /** 4 vertices of each bubble (the clique). */
  val verts = new Array[Array[Int]](maxBubbles)
  /** Parent bubble id, -1 for the root. */
  val parent: Array[Int] = Array.fill(maxBubbles)(-1)
  val children: Array[ArrayBuffer[Int]] = Array.fill(maxBubbles)(new ArrayBuffer[Int](3))
  /** Separating triangle (3 vertices) shared with the parent; null for root. */
  val sepTri = new Array[Array[Int]](maxBubbles)
  /** The vertex of the bubble not on `sepTri` (valid for non-root bubbles). */
  val innerVert = new Array[Int](maxBubbles)

  var root: Int = -1
  var numBubbles: Int = 0

  /** Allocate a bubble with the given 4-clique; returns its id. */
  def addBubble(vs: Array[Int]): Int = {
    require(vs.length == 4, s"bubble must be a 4-clique, got ${vs.length} vertices")
    val id = numBubbles
    verts(id) = vs
    numBubbles += 1
    id
  }

  /** Attach `child` under `par` across separating triangle `tri`. */
  def link(par: Int, child: Int, tri: Array[Int]): Unit = {
    parent(child) = par
    children(par) += child
    sepTri(child) = tri
    val triSet = tri.toSet
    innerVert(child) = verts(child).find(v => !triSet.contains(v)).getOrElse(
      sys.error(s"bubble $child has no vertex outside its separating triangle"))
  }

  /** Bubble ids in BFS order from the root (parents before children). */
  def topoOrder: Array[Int] = {
    val order = new Array[Int](numBubbles)
    var head = 0; var tail = 0
    order(tail) = root; tail += 1
    while (head < tail) {
      val b = order(head); head += 1
      val cs = children(b)
      var i = 0
      while (i < cs.length) { order(tail) = cs(i); tail += 1; i += 1 }
    }
    require(tail == numBubbles, s"bubble tree is not connected: reached $tail of $numBubbles")
    order
  }

  /** Depth of every bubble (root = 0). */
  def depths: Array[Int] = {
    val d = new Array[Int](numBubbles)
    for (b <- topoOrder; if b != root) d(b) = d(parent(b)) + 1
    d
  }
}

/** Directions on bubble-tree edges (paper §V-B, Algorithm 3).
  *
  * For every non-root bubble b, `towardChild(b)` is true iff the tree
  * edge between parent(b) and b is directed parent -> b, which happens
  * when the separating triangle's connection to its interior (INVAL)
  * exceeds its connection to its exterior (OUTVAL). `Dbht.bubblesFromTmfg`
  * turns these flags into the directed `Bubbles` that DBHT consumes.
  */
object BubbleDirections {

  /** Compute all edge directions in O(n) work (Algorithm 3), implemented
    * as an iterative bottom-up sweep over tree levels (the recursion in
    * the paper), parallel within each level.
    *
    * `wdeg` must be the weighted degrees of the TMFG vertices under S.
    * Returns `towardChild` per bubble id (false for the root).
    */
  def compute(tree: BubbleTree, s: SymMatrix, wdeg: Array[Double], par: Par): Array[Boolean] = {
    val nb = tree.numBubbles
    val towardChild = new Array[Boolean](nb)
    if (nb <= 1) return towardChild

    // r(b)(k) = sum of TMFG edge weights from sepTri(b)(k) into the
    // interior of b's separating triangle.
    val r = new Array[Array[Double]](nb)
    val depth = tree.depths
    val maxDepth = depth.max
    val byLevel = Array.fill(maxDepth + 1)(new ArrayBuffer[Int]())
    for (b <- 0 until nb) byLevel(depth(b)) += b

    var level = maxDepth
    while (level >= 1) {
      val bs = byLevel(level)
      par.parFor(bs.length, grain = 64) { i =>
        val b   = bs(i)
        val tri = tree.sepTri(b)
        val v   = tree.innerVert(b)
        val rb  = Array(s(tri(0), v), s(tri(1), v), s(tri(2), v))
        val cs  = tree.children(b)
        var ci = 0
        while (ci < cs.length) {
          val c    = cs(ci)
          val ctri = tree.sepTri(c)
          val rc   = r(c)
          var j = 0
          while (j < 3) {
            val u = ctri(j)
            var k = 0
            while (k < 3) { if (tri(k) == u) rb(k) += rc(j); k += 1 }
            j += 1
          }
          ci += 1
        }
        r(b) = rb
        val inVal  = rb(0) + rb(1) + rb(2)
        val triW   = s(tri(0), tri(1)) + s(tri(0), tri(2)) + s(tri(1), tri(2))
        val outVal = wdeg(tri(0)) + wdeg(tri(1)) + wdeg(tri(2)) - inVal - 2.0 * triW
        towardChild(b) = inVal > outVal
      }
      level -= 1
    }
    towardChild
  }
}
