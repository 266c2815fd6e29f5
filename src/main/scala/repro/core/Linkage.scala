package repro.core

import scala.collection.mutable.ArrayBuffer

/** Hierarchical agglomerative clustering via the nearest-neighbor-chain
  * algorithm with Lance–Williams updates — O(k^2) time and memory for k
  * initial clusters.
  *
  * Used three ways in this repo: as the COMP and AVG baselines of the
  * paper's evaluation (on the full dissimilarity matrix), and as the
  * complete-linkage subroutine of the DBHT (paper §V-D), where the
  * initial clusters are DBHT subgroups and the distances are TMFG
  * shortest-path distances.
  *
  * Complete and average linkage are both *reducible*, so NN-chain merges
  * are the same set as greedy-min-merge; the merge list is sorted by
  * distance and relabelled through a union-find afterwards (scipy's
  * approach), which also makes the resulting dendrogram monotone.
  */
object Linkage {

  sealed trait Method
  case object Complete extends Method
  case object Average  extends Method

  /** One merge in monotone order: node ids follow the Dendrogram
    * convention (0..k-1 initial clusters, k+t for the t-th merge).
    */
  final case class Merge(a: Int, b: Int, dist: Double)

  /** Agglomerate k initial clusters given the k x k cluster-distance
    * matrix (flat row-major, symmetric) and per-cluster sizes.
    * Returns k-1 merges in non-decreasing distance order.
    */
  def agglomerate(k: Int, dist0: Array[Double], sizes0: Array[Int], method: Method): Array[Merge] = {
    require(dist0.length == k * k, s"need ${k * k} distances, got ${dist0.length}")
    if (k <= 1) return Array.empty
    val d      = dist0.clone()
    val size   = sizes0.clone()
    val active = Array.fill(k)(true)
    // raw merges as (survivingSlot, removedSlot, dist)
    val raw   = new ArrayBuffer[(Int, Int, Double)](k - 1)
    val chain = new ArrayBuffer[Int](k)

    def firstActive(): Int = { var s = 0; while (!active(s)) s += 1; s }

    var remaining = k
    while (remaining > 1) {
      if (chain.isEmpty) chain += firstActive()
      var merged = false
      while (!merged) {
        val top  = chain(chain.length - 1)
        val prev = if (chain.length >= 2) chain(chain.length - 2) else -1
        // nearest active neighbor of `top`; ties prefer the chain
        // predecessor (termination), then the smallest index (determinism)
        var nn  = -1
        var nnd = Double.PositiveInfinity
        var j = 0
        while (j < k) {
          if (active(j) && j != top) {
            val dj = d(top * k + j)
            if (dj < nnd || (dj == nnd && j == prev)) { nnd = dj; nn = j }
          }
          j += 1
        }
        if (nn == prev) {
          // reciprocal nearest neighbors: merge into the smaller slot
          val i  = math.min(top, nn)
          val jj = math.max(top, nn)
          raw += ((i, jj, nnd))
          val si = size(i); val sj = size(jj)
          var x = 0
          while (x < k) {
            if (active(x) && x != i && x != jj) {
              val dxi = d(x * k + i)
              val dxj = d(x * k + jj)
              val nd = method match {
                case Complete => math.max(dxi, dxj)
                case Average  => (si * dxi + sj * dxj) / (si + sj)
              }
              d(x * k + i) = nd
              d(i * k + x) = nd
            }
            x += 1
          }
          size(i) = si + sj
          active(jj) = false
          remaining -= 1
          chain.remove(chain.length - 1)
          chain.remove(chain.length - 1)
          merged = true
        } else {
          chain += nn
        }
      }
    }

    // sort by merge distance and relabel through a union-find so that the
    // merge list forms a valid monotone binary tree
    val sorted = raw.sortBy(m => (m._3, m._1, m._2))
    val slotNode = new Array[Int](k) // slot -> current dendrogram node id
    for (i <- 0 until k) slotNode(i) = i
    val out = new ArrayBuffer[Merge](k - 1)
    var t = 0
    for ((i, j, dd) <- sorted) {
      out += Merge(slotNode(i), slotNode(j), dd)
      slotNode(i) = k + t
      t += 1
    }
    out.toArray
  }

  /** Complete-linkage cluster-distance matrix between groups of points
    * (flat k x k, symmetric): for clusters i < j, the largest
    * `d(a * stride + b)` over a in cluster i and b in cluster j, so each
    * pair is read from the row of the earlier cluster's point. The loops
    * run i, a, j, b: a point's row is read once for all later clusters.
    * Sequential: it runs inside the DBHT group fan-out, where a nested
    * `parFor` on the same fixed pool could deadlock.
    */
  def clusterDistances(members: Array[Array[Int]], d: Array[Double], stride: Int): Array[Double] = {
    val k = members.length
    val out = new Array[Double](k * k)
    var i = 0
    while (i < k) {
      java.util.Arrays.fill(out, i * k + i + 1, i * k + k, Double.NegativeInfinity)
      val mi = members(i)
      var a = 0
      while (a < mi.length) {
        val row = mi(a) * stride
        var j = i + 1
        while (j < k) {
          val mj = members(j)
          var acc = out(i * k + j)
          var b = 0
          while (b < mj.length) { val x = d(row + mj(b)); if (x > acc) acc = x; b += 1 }
          out(i * k + j) = acc
          j += 1
        }
        a += 1
      }
      for (j <- i + 1 until k) out(j * k + i) = out(i * k + j)
      i += 1
    }
    out
  }

  /** Full HAC over n points given their n x n distance matrix; returns a
    * dendrogram with merge distances as heights. This is the paper's COMP
    * / AVG baseline.
    */
  def hac(dist: SymMatrix, method: Method): Dendrogram = {
    val n = dist.n
    val merges = agglomerate(n, dist.data, Array.fill(n)(1), method)
    val b = new DendroBuilder(n)
    var maxH = 0.0
    for (m <- merges) {
      maxH = math.max(maxH, m.dist)
      b.merge(m.a, m.b, maxH)
    }
    b.build()
  }
}
