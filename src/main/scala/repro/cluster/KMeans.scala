package repro.cluster

import repro.core.Par
import scala.util.Random

/** k-means++ with Lloyd iterations — the paper's K-MEANS baseline
  * (Bahmani et al.'s scalable k-means++ in the paper; classic D^2
  * seeding here, which optimizes the same objective). Deterministic in
  * the seed; distance evaluations are parallel over points.
  */
object KMeans {

  final case class Result(labels: Array[Int], centers: Array[Array[Double]], cost: Double,
                          iterations: Int)

  @inline private def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** k-means++ seeding, then at most 100 Lloyd iterations, stopping once
    * the cost falls by at most 1e-6 of itself.
    */
  def fit(points: Array[Array[Double]], k: Int, par: Par, seed: Long = 42): Result = {
    val n = points.length
    require(k >= 1 && k <= n, s"k=$k must be in [1, $n]")
    val dim = points(0).length
    val rng = new Random(seed)

    // --- k-means++ seeding ---
    val centers = new Array[Array[Double]](k)
    centers(0) = points(rng.nextInt(n)).clone()
    val minD = Array.fill(n)(Double.PositiveInfinity)
    for (c <- 1 until k) {
      val prev = centers(c - 1)
      par.parFor(n, grain = 64) { i =>
        val d = sqDist(points(i), prev)
        if (d < minD(i)) minD(i) = d
      }
      val total = minD.sum
      var pick = 0
      if (total <= 0) pick = rng.nextInt(n)
      else {
        var r = rng.nextDouble() * total
        var i = 0
        while (i < n - 1 && r > minD(i)) { r -= minD(i); i += 1 }
        pick = i
      }
      centers(c) = points(pick).clone()
    }

    // --- Lloyd iterations ---
    val labels = new Array[Int](n)
    var prevCost = Double.PositiveInfinity
    var iter = 0
    var converged = false
    while (iter < 100 && !converged) {
      // assign
      val costs = par.parMap(n, grain = 64) { i =>
        var best = 0
        var bd = Double.PositiveInfinity
        var c = 0
        while (c < k) {
          val d = sqDist(points(i), centers(c))
          if (d < bd) { bd = d; best = c }
          c += 1
        }
        labels(i) = best
        bd
      }
      val cost = costs.sum
      // update
      val sums   = Array.ofDim[Double](k, dim)
      val counts = new Array[Int](k)
      var i = 0
      while (i < n) {
        val c = labels(i)
        counts(c) += 1
        val p = points(i)
        val sc = sums(c)
        var j = 0
        while (j < dim) { sc(j) += p(j); j += 1 }
        i += 1
      }
      var c = 0
      while (c < k) {
        if (counts(c) > 0) {
          val sc = sums(c)
          var j = 0
          while (j < dim) { centers(c)(j) = sc(j) / counts(c); j += 1 }
        } else {
          // re-seed an empty cluster at the globally farthest point
          var far = 0
          var fd = -1.0
          var x = 0
          while (x < n) {
            val d = sqDist(points(x), centers(labels(x)))
            if (d > fd) { fd = d; far = x }
            x += 1
          }
          centers(c) = points(far).clone()
        }
        c += 1
      }
      iter += 1
      converged = prevCost - cost <= 1e-6 * math.max(1.0, prevCost)
      prevCost = cost
    }
    Result(labels, centers, prevCost, iter)
  }
}
