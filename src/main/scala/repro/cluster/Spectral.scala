package repro.cluster

import repro.core.{Par, WGraph}
import scala.util.Random

/** Spectral embedding over a beta-nearest-neighbor graph — the
  * preprocessing behind the paper's K-MEANS-S baseline (scikit-learn's
  * SpectralEmbedding with a nearest-neighbors affinity).
  *
  * The affinity A is the symmetrized 0/1 beta-NN graph; the embedding is
  * the top-c eigenvectors of the normalized affinity M = D^-1/2 A D^-1/2
  * (equivalently the bottom of the normalized Laplacian), computed by
  * subspace (orthogonal) iteration with sparse mat-vecs — adequate for
  * the n <= few-thousand matrices here and fully offline.
  */
object Spectral {

  /** Symmetrized beta-NN adjacency lists under Euclidean distance. */
  def knnGraph(points: Array[Array[Double]], beta: Int, par: Par): Array[Array[Int]] = {
    val n = points.length
    val b = math.min(beta, n - 1)
    val nbrs = par.parMap(n) { i =>
      val d = new Array[Double](n)
      var j = 0
      while (j < n) {
        var s = 0.0
        val pi = points(i); val pj = points(j)
        var t = 0
        while (t < pi.length) { val x = pi(t) - pj(t); s += x * x; t += 1 }
        d(j) = s
        j += 1
      }
      d(i) = Double.PositiveInfinity
      (0 until n).sortBy(x => (d(x), x)).take(b).toArray
    }
    // symmetrize: union of i->j and j->i, rows ascending
    val g = WGraph.fromEdges(n, for (i <- 0 until n; j <- nbrs(i)) yield (i, j))
    Array.tabulate(n)(g.adj)
  }

  /** Rows of the c-dimensional spectral embedding: 120 subspace
    * iterations from a Gaussian basis drawn with seed 7.
    */
  def embed(points: Array[Array[Double]], beta: Int, c: Int, par: Par): Array[Array[Double]] = {
    val n   = points.length
    val adj = knnGraph(points, beta, par)
    val deg = adj.map(_.length.toDouble)
    val inv = deg.map(d => if (d > 0) 1.0 / math.sqrt(d) else 0.0)

    // subspace iteration on M = D^-1/2 A D^-1/2 (spectrum in [-1, 1]);
    // iterate on (M + I)/2 to damp the negative end
    val rng = new Random(7)
    var basis = Array.fill(c)(Array.fill(n)(rng.nextGaussian()))
    orthonormalize(basis)
    var next = Array.ofDim[Double](c, n)
    var it = 0
    while (it < 120) {
      par.parFor(c) { v =>
        val x = basis(v)
        val y = next(v)
        var i = 0
        while (i < n) {
          var s = 0.0
          val a = adj(i)
          var k = 0
          while (k < a.length) { val j = a(k); s += inv(i) * inv(j) * x(j); k += 1 }
          y(i) = 0.5 * (s + x(i))
          i += 1
        }
      }
      val tmp = basis
      basis = next
      next = tmp
      orthonormalize(basis)
      it += 1
    }
    // rows of the eigenvector matrix as point features
    Array.tabulate(n)(i => Array.tabulate(c)(v => basis(v)(i)))
  }

  /** Modified Gram-Schmidt over the row vectors of `vs`, in place. */
  private def orthonormalize(vs: Array[Array[Double]]): Unit =
    for (i <- vs.indices) {
      val vi = vs(i)
      var nrm = projectOutPrevious(vs, i)
      if (nrm < 1e-12) {
        // degenerate direction: replace with a fresh deterministic vector
        var s = 0
        while (s < vi.length) { vi(s) = math.sin(0.7 * (s + 1) * (i + 1)); s += 1 }
        nrm = math.max(projectOutPrevious(vs, i), 1e-12)
      }
      var t = 0
      while (t < vi.length) { vi(t) /= nrm; t += 1 }
    }

  /** Subtracts from `vs(i)` its projection on each of `vs(0 until i)`, in
    * order, and returns the norm of what is left.
    */
  private def projectOutPrevious(vs: Array[Array[Double]], i: Int): Double = {
    val vi = vs(i)
    val n = vi.length
    for (j <- 0 until i) {
      val vj = vs(j)
      var dot = 0.0
      var t = 0
      while (t < n) { dot += vi(t) * vj(t); t += 1 }
      t = 0
      while (t < n) { vi(t) -= dot * vj(t); t += 1 }
    }
    var nrm = 0.0
    var t = 0
    while (t < n) { nrm += vi(t) * vi(t); t += 1 }
    math.sqrt(nrm)
  }
}
