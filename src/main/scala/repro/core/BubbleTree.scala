package repro.core

/** Rooted bubble tree for a TMFG (paper §V-A, Algorithm 2).
  *
  * Every vertex insertion during TMFG construction creates exactly one
  * bubble (a 4-clique) and one tree edge, so for an n-vertex TMFG there
  * are n-3 bubbles. Bubble b's clique is `cliques(4b until 4b + 4)`:
  * bubble 0 is the seed clique, and bubble b >= 1 is the face it was
  * inserted into followed by the inserted vertex. `parent(b)` is -1 for
  * the root.
  *
  * Inserting into the *outer* face makes the new bubble the parent of the
  * old root; any other insertion makes the new bubble a child of the
  * face's bubble. Either way the edge between b and parent(b) was made
  * with the later of the two, whose face is the separating triangle: all
  * descendants of the edge (parent(b), b) lie in its interior.
  */
final class BubbleTree(val cliques: Array[Int], val parent: Array[Int], val root: Int) {
  require(cliques.length == 4 * parent.length,
    s"${parent.length} bubbles need ${4 * parent.length} clique entries, got ${cliques.length}")

  def numBubbles: Int = parent.length

  /** Child bubble ids of each bubble, ascending: the order they were linked. */
  val children: Array[Array[Int]] = Dbht.groupMembers(parent, numBubbles)

  /** The 4 vertices of bubble b. */
  def verts(b: Int): Array[Int] = cliques.slice(4 * b, 4 * b + 4)

  /** Where b's separating triangle starts in `cliques`: the face of the later
    * of b and parent(b). This, `sepTri` and `innerVert` hold for non-root b.
    */
  def sepTriAt(b: Int): Int = 4 * math.max(b, parent(b))

  def sepTri(b: Int): Array[Int] = cliques.slice(sepTriAt(b), sepTriAt(b) + 3)

  /** The vertex of bubble b off `sepTri(b)`: the inserted vertex, or for an
    * old root that an outer-face insertion re-rooted, the one off that face.
    */
  def innerVert(b: Int): Int = if (b > parent(b)) cliques(4 * b + 3) else verts(b).diff(sepTri(b)).head

  /** Bubble ids in BFS order from the root (parents before children). */
  def topoOrder: Array[Int] = {
    val order = new Array[Int](numBubbles)
    order(0) = root
    var head = 0; var tail = 1
    while (head < tail) {
      val cs = children(order(head)); head += 1
      System.arraycopy(cs, 0, order, tail, cs.length)
      tail += cs.length
    }
    require(tail == numBubbles, s"bubble tree is not connected: reached $tail of $numBubbles")
    order
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
    * the paper), parallel within each level. A level is a contiguous run
    * of `topoOrder`.
    *
    * `wdeg` must be the weighted degrees of the TMFG vertices under S.
    * Returns `towardChild` per bubble id (false for the root).
    */
  def compute(tree: BubbleTree, s: SymMatrix, wdeg: Array[Double], par: Par): Array[Boolean] = {
    val nb = tree.numBubbles
    val towardChild = new Array[Boolean](nb)
    if (nb <= 1) return towardChild

    val q = tree.cliques
    // r(3b + k) = sum of TMFG edge weights from the k-th vertex of
    // sepTri(b) into the interior of b's separating triangle.
    val r = new Array[Double](3 * nb)
    val order = tree.topoOrder
    val depth = new Array[Int](nb) // root = 0
    for (b <- order; if b != tree.root) depth(b) = depth(tree.parent(b)) + 1
    // the levels, bottom-up: order(lo until hi) is one level of the BFS order
    var hi = nb
    while (hi > 1) {
      val lo = order.lastIndexWhere(depth(_) < depth(order(hi - 1)), hi - 1) + 1
      par.parFor(hi - lo, grain = 64) { i =>
        val b  = order(lo + i)
        val t  = tree.sepTriAt(b)
        val v  = tree.innerVert(b)
        val rb = 3 * b
        for (k <- 0 until 3) r(rb + k) = s(q(t + k), v)
        // add each child's r at the positions of its triangle's vertices in b's
        for (c <- tree.children(b); j <- 0 until 3; k <- 0 until 3)
          if (q(t + k) == q(tree.sepTriAt(c) + j)) r(rb + k) += r(3 * c + j)
        val inVal  = r(rb) + r(rb + 1) + r(rb + 2)
        val triW   = s(q(t), q(t + 1)) + s(q(t), q(t + 2)) + s(q(t + 1), q(t + 2))
        val outVal = wdeg(q(t)) + wdeg(q(t + 1)) + wdeg(q(t + 2)) - inVal - 2.0 * triW
        towardChild(b) = inVal > outVal
      }
      hi = lo
    }
    towardChild
  }
}
