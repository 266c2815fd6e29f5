package repro.core

import scala.collection.mutable.ArrayBuffer

/** Binary dendrogram over `nLeaves` leaves.
  *
  * Node ids: 0..nLeaves-1 are leaves; internal node t (t-th merge) has id
  * nLeaves + t. `height` must be monotone: a parent's height is at least
  * the height of its children (the paper's DBHT height re-assignment and
  * our sorted-relabelled HAC both guarantee this).
  */
final class Dendrogram(val nLeaves: Int,
                       val left: Array[Int],
                       val right: Array[Int],
                       val height: Array[Double]) {
  require(left.length == nLeaves - 1 && right.length == nLeaves - 1 && height.length == nLeaves - 1,
    s"a dendrogram over $nLeaves leaves needs ${nLeaves - 1} merges")

  def root: Int = 2 * nLeaves - 2

  def heightOf(node: Int): Double = if (node < nLeaves) 0.0 else height(node - nLeaves)

  /** Leaves under `node`. */
  def leavesUnder(node: Int): Array[Int] = {
    val out   = new ArrayBuffer[Int]()
    val stack = new ArrayBuffer[Int]()
    stack += node
    while (stack.nonEmpty) {
      val x = stack.remove(stack.length - 1)
      if (x < nLeaves) out += x
      else { stack += left(x - nLeaves); stack += right(x - nLeaves) }
    }
    out.toArray
  }

  /** Cut into exactly k clusters by repeatedly splitting the root with
    * the largest height (scipy `fcluster(..., criterion="maxclust")`
    * semantics on a monotone dendrogram). Returns a label per leaf,
    * labels in 0..k-1, numbered by smallest contained leaf.
    */
  def cut(k: Int): Array[Int] = {
    Dendrogram.checkK(k, nLeaves)
    // max-heap over (height, id): break height ties on larger id (later
    // merge), which keeps the split order deterministic
    val ord = Ordering.by[(Double, Int), (Double, Int)](identity)
    val pq  = collection.mutable.PriorityQueue.empty[(Double, Int)](ord)
    pq.enqueue((heightOf(root), root))
    while (pq.size < k && pq.head._2 >= nLeaves) {
      val (_, node) = pq.dequeue()
      val t = node - nLeaves
      pq.enqueue((heightOf(left(t)), left(t)))
      pq.enqueue((heightOf(right(t)), right(t)))
    }
    val roots  = pq.toArray.map(_._2)
    val labels = new Array[Int](nLeaves)
    val reps   = roots.map(r => leavesUnder(r)).sortBy(_.min)
    for ((leafSet, c) <- reps.zipWithIndex; leaf <- leafSet) labels(leaf) = c
    labels
  }

  /** True iff every parent's height >= both children's heights. */
  def isMonotone: Boolean =
    (0 until nLeaves - 1).forall(t =>
      height(t) >= heightOf(left(t)) - 1e-12 && height(t) >= heightOf(right(t)) - 1e-12)
}

object Dendrogram {
  /** Rejects a cluster count k outside 1..n for n objects. Every pipeline
    * calls this before its first stage, so a bad k fails in no time
    * rather than at the cut after the whole run.
    */
  def checkK(k: Int, n: Int): Unit =
    require(1 <= k && k <= n, s"k = $k is outside 1..n = $n: cannot cut $n objects into $k clusters")
}

/** Incremental builder: start from `nLeaves` singleton nodes, `merge`
  * cluster handles, and `build` once a single root remains.
  */
final class DendroBuilder(val nLeaves: Int) {
  private val left   = new ArrayBuffer[Int](nLeaves - 1)
  private val right  = new ArrayBuffer[Int](nLeaves - 1)
  private val height = new ArrayBuffer[Double](nLeaves - 1)

  /** Merge two existing node ids; returns the new internal node's id. */
  def merge(a: Int, b: Int, h: Double): Int = {
    val id = nLeaves + left.length
    left += a; right += b; height += h
    id
  }

  def build(): Dendrogram = {
    require(left.length == nLeaves - 1,
      s"expected ${nLeaves - 1} merges, got ${left.length}")
    new Dendrogram(nLeaves, left.toArray, right.toArray, height.toArray)
  }
}
