package repro.core

/** Undirected graph over vertices 0..n-1 in compressed sparse row form:
  * vertex u's neighbours are `nbr(off(u) until off(u + 1))`, ascending,
  * with no self-loop and no repeat, so each edge appears once in each of
  * its two rows and `off(n) == nbr.length` is twice the edge count.
  *
  * Edge weights are not stored here: every consumer reads them from the
  * similarity matrix `S` or the dissimilarity matrix `D` (the DBHT
  * pipeline needs *both* measures on the same topology). `Apsp.Edges`
  * adds D's weights as one array parallel to `nbr`.
  */
final class WGraph private (val n: Int, val off: Array[Int], val nbr: Array[Int]) extends Serializable {

  /** Vertex u's neighbours, ascending, as a new array. */
  def adj(u: Int): Array[Int] = java.util.Arrays.copyOfRange(nbr, off(u), off(u + 1))

  def numEdges: Int = off(n) / 2

  def hasEdge(u: Int, v: Int): Boolean = java.util.Arrays.binarySearch(nbr, off(u), off(u + 1), v) >= 0

  /** All edges as (u, v) with u < v, ascending. */
  def edges: IndexedSeq[(Int, Int)] =
    for (u <- 0 until n; k <- off(u) until off(u + 1) if nbr(k) > u) yield (u, nbr(k))

  /** Sum of w(u,v) over all edges, weights read from `w`. */
  def totalWeight(w: SymMatrix): Double = {
    var s = 0.0
    var u = 0
    while (u < n) {
      var k = off(u)
      while (k < off(u + 1)) { if (nbr(k) > u) s += w(u, nbr(k)); k += 1 }
      u += 1
    }
    s
  }

  /** Weighted degree of every vertex under weight matrix `w`. */
  def weightedDegrees(w: SymMatrix): Array[Double] = {
    val d = new Array[Double](n)
    var u = 0
    while (u < n) {
      var s = 0.0
      var k = off(u)
      while (k < off(u + 1)) { s += w(u, nbr(k)); k += 1 }
      d(u) = s
      u += 1
    }
    d
  }
}

object WGraph {
  /** Build from an undirected edge list, edge i being (us(i), vs(i)), in
    * either orientation. Self-loops and repeated edges are dropped.
    */
  def fromEdges(n: Int, us: Array[Int], vs: Array[Int]): WGraph = {
    require(us.length == vs.length, s"edge lists differ in length: ${us.length} vs ${vs.length}")
    // counting sort of both orientations of every edge into rows
    val start = new Array[Int](n + 1)
    for (i <- us.indices if us(i) != vs(i)) { start(us(i) + 1) += 1; start(vs(i) + 1) += 1 }
    for (u <- 0 until n) start(u + 1) += start(u)
    val fill = java.util.Arrays.copyOf(start, n)
    val all  = new Array[Int](start(n))
    for (i <- us.indices if us(i) != vs(i)) {
      all(fill(us(i))) = vs(i); fill(us(i)) += 1
      all(fill(vs(i))) = us(i); fill(vs(i)) += 1
    }
    // sort each row, then compact it to the front, dropping repeats
    val off = new Array[Int](n + 1)
    var len = 0
    for (u <- 0 until n) {
      java.util.Arrays.sort(all, start(u), start(u + 1))
      for (k <- start(u) until start(u + 1) if len == off(u) || all(k) != all(len - 1)) {
        all(len) = all(k); len += 1
      }
      off(u + 1) = len
    }
    new WGraph(n, off, java.util.Arrays.copyOf(all, len))
  }

  /** The same, from (u, v) pairs. */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): WGraph =
    fromEdges(n, edges.iterator.map(_._1).toArray, edges.iterator.map(_._2).toArray)
}
