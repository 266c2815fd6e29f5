package repro.core

/** All-pairs shortest paths on the (sparse, planar) TMFG under the
  * dissimilarity measure D, computed as one single-source run from every
  * source in parallel (paper Algorithm 4, Line 7). This is the asymptotic
  * bottleneck of the parallel DBHT (paper §VI), which the
  * runtime-decomposition bench (T3) reproduces.
  *
  * Every source runs one kernel, `row`: a bucket queue (Dial 1969) of
  * width Δ over the CSR graph and its D weights (`Edges`), label-correcting
  * inside a bucket like the Δ-stepping of Meyer & Sanders (J. Algorithms
  * 2003). Its distances are bit-identical to Dijkstra's: `fl(a + w)` is
  * monotone in `a`, so every correct label-setting or label-correcting
  * SSSP ends with each vertex at the same value, the minimum over all
  * walks of the walk's weights summed in order from the source. The
  * order of the scans inside a bucket, re-scans and edges lighter than Δ
  * cannot change a bit.
  */
object Apsp {

  /** Sources per block of `allPairs`; each block allocates one `Workspace`. */
  private val Block = 16

  /** The graph `g` weighted by D: `w(k) = d(u, g.nbr(k))` for vertex u's
    * neighbour `g.nbr(k)`, `k` in `g.off(u) until g.off(u + 1)`. The
    * topology is `g`'s own CSR arrays, not a copy. O(n) for the planar
    * TMFG, which is why `allPairs` shares it with every task.
    *
    * `delta` is the bucket width Δ = max(w_min, w_max / 64), or 1 when
    * every weight is 0. A scan pushes a vertex at most ⌊w_max/Δ⌋ + 1
    * buckets (+1 for rounding) past the current one, so a ring of
    * `ring` = ⌊w_max/Δ⌋ + 3 buckets (at most 67) holds every live entry.
    */
  final class Edges private[Apsp] (val g: WGraph, val w: Array[Double], val delta: Double, val ring: Int)
      extends Serializable

  /** The edges of `g` under `d`. The bucket arithmetic needs finite,
    * non-negative weights, so a NaN, infinite or negative `d(u, v)` on an
    * edge fails here, naming the edge and the value, before any source runs.
    */
  def edges(g: WGraph, d: SymMatrix): Edges = {
    val w    = new Array[Double](g.nbr.length)
    var wMin = Double.PositiveInfinity
    var wMax = 0.0
    var u = 0
    while (u < g.n) {
      var k = g.off(u)
      while (k < g.off(u + 1)) {
        val x = d(u, g.nbr(k))
        require(x >= 0.0 && x < Double.PositiveInfinity,
          s"edge ($u, ${g.nbr(k)}) has dissimilarity $x: APSP needs finite, non-negative edge weights")
        w(k) = x
        wMin = math.min(wMin, x)
        wMax = math.max(wMax, x)
        k += 1
      }
      u += 1
    }
    val delta = if (wMax == 0.0) 1.0 else math.max(wMin, wMax / 64)
    new Edges(g, w, delta, (wMax / delta).toInt + 3)
  }

  /** Per-worker working arrays for `row`, reused across sources: the
    * ring of buckets (growable stacks of vertices), their sizes, and the
    * distance each vertex was last scanned at.
    */
  final class Workspace(e: Edges) {
    private[Apsp] val bucket    = Array.fill(e.ring)(new Array[Int](16))
    private[Apsp] val size      = new Array[Int](e.ring)
    private[Apsp] val scannedAt = new Array[Double](e.g.n)

    private[Apsp] def push(slot: Int, v: Int): Unit = {
      val s = size(slot)
      if (s == bucket(slot).length) bucket(slot) = java.util.Arrays.copyOf(bucket(slot), 2 * s)
      bucket(slot)(s) = v
      size(slot) = s + 1
    }
  }

  /** Shortest-path distances from `src` over `e`, written straight into
    * `out(base until base + e.g.n)` (+∞ where unreachable). `work` is the
    * caller's workspace, one per worker. Returns the number of vertex scans.
    *
    * A popped vertex is scanned only if its distance is still in the
    * current bucket and differs from the one it was last scanned at;
    * entries left behind by a later decrease are skipped. An entry whose
    * distance lies above the current bucket means the ring was too small,
    * and fails rather than being dropped.
    */
  def row(e: Edges, src: Int, out: Array[Double], base: Int, work: Workspace): Int = {
    val off = e.g.off; val nbr = e.g.nbr; val w = e.w
    val delta = e.delta; val ring = e.ring
    val bucket = work.bucket; val size = work.size; val scannedAt = work.scannedAt
    java.util.Arrays.fill(out, base, base + e.g.n, Double.PositiveInfinity)
    java.util.Arrays.fill(scannedAt, -1.0)
    java.util.Arrays.fill(size, 0)
    out(base + src) = 0.0
    work.push(0, src)
    var live  = 1
    var cur   = 0
    var scans = 0
    while (live > 0) {
      val slot = cur % ring
      while (size(slot) > 0) {
        size(slot) -= 1
        live -= 1
        val v  = bucket(slot)(size(slot))
        val dv = out(base + v)
        val b  = (dv / delta).toInt
        if (b > cur)
          throw new IllegalStateException(
            s"bucket ring of $ring is too small: vertex $v at distance $dv (bucket $b) popped at bucket $cur")
        if (b == cur && dv != scannedAt(v)) {
          scannedAt(v) = dv
          scans += 1
          var k = off(v)
          val end = off(v + 1)
          while (k < end) {
            val x  = nbr(k)
            val nd = dv + w(k)
            if (nd < out(base + x)) {
              out(base + x) = nd
              work.push((nd / delta).toInt % ring, x)
              live += 1
            }
            k += 1
          }
        }
      }
      cur += 1
    }
    scans
  }

  /** Full APSP matrix, one task per block of `Block` sources on `exec`,
    * with the `Edges` shared. Row u holds the distances summed along paths
    * from u, so the matrix is symmetric only up to rounding: a consumer
    * reads `apsp(u, v)` from u's row.
    */
  def allPairs(g: WGraph, d: SymMatrix, exec: Exec): SymMatrix = {
    val n   = g.n
    val out = SymMatrix.zeros(n)
    exec.share(edges(g, d)) { es =>
      exec.fillRows(out.data, n, (n + Block - 1) / Block)(b => (b * Block, math.min(n, (b + 1) * Block))) {
        (b, buf, off) =>
          val e    = es()
          val work = new Workspace(e)
          var src = b * Block
          val end = math.min(n, src + Block)
          while (src < end) { row(e, src, buf, src * n - off, work); src += 1 }
      }(_ => ())
    }
    out
  }
}
