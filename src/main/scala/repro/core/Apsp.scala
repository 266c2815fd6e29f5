package repro.core

/** All-pairs shortest paths on the (sparse, planar) TMFG under the
  * dissimilarity measure D, computed as n parallel Dijkstra runs
  * (paper Algorithm 4, Line 7). This is the asymptotic bottleneck of the
  * parallel DBHT (paper §VI), which the runtime-decomposition bench (T3)
  * reproduces.
  */
object Apsp {

  /** Lazy-deletion binary min-heap of (dist, vertex) pairs on primitive
    * arrays — Dijkstra's inner loop allocates nothing.
    */
  private final class Heap(capacity: Int) {
    private val hd = new Array[Double](capacity)
    private val hv = new Array[Int](capacity)
    var size = 0

    def push(d: Double, v: Int): Unit = {
      var i = size; size += 1
      hd(i) = d; hv(i) = v
      var cont = i > 0
      while (cont) {
        val p = (i - 1) >> 1
        if (hd(p) <= hd(i)) cont = false
        else {
          val td = hd(p); hd(p) = hd(i); hd(i) = td
          val tv = hv(p); hv(p) = hv(i); hv(i) = tv
          i = p
          cont = i > 0
        }
      }
    }

    def popVertex(): Int = {
      val v = hv(0)
      size -= 1
      if (size > 0) {
        hd(0) = hd(size); hv(0) = hv(size)
        var i = 0
        var cont = true
        while (cont) {
          val l = 2 * i + 1
          val r = l + 1
          var m = i
          if (l < size && hd(l) < hd(m)) m = l
          if (r < size && hd(r) < hd(m)) m = r
          if (m == i) cont = false
          else {
            val td = hd(m); hd(m) = hd(i); hd(i) = td
            val tv = hv(m); hv(m) = hv(i); hv(i) = tv
            i = m
          }
        }
      }
      v
    }
  }

  /** The edge weights of `g` under `d`, parallel to `g.adj`:
    * `w(u)(k) = d(u, g.adj(u)(k))`. O(n) for the planar TMFG.
    */
  def edgeWeights(g: WGraph, d: SymMatrix): Array[Array[Double]] =
    Array.tabulate(g.n)(u => g.adj(u).map(v => d(u, v)))

  /** Single-source Dijkstra over `g` with edge weights `d(u,v)`.
    * Returns the distance array (Double.PositiveInfinity if unreachable).
    */
  def dijkstra(g: WGraph, d: SymMatrix, source: Int): Array[Double] =
    dijkstra(g.adj, edgeWeights(g, d), source)

  /** Single-source Dijkstra over the adjacency arrays `adj` with the edge
    * weights `w` parallel to them (see `edgeWeights`). Returns the
    * distance array (Double.PositiveInfinity if unreachable).
    */
  def dijkstra(adj: Array[Array[Int]], w: Array[Array[Double]], source: Int): Array[Double] = {
    val n    = adj.length
    val dist = Array.fill(n)(Double.PositiveInfinity)
    val done = new Array[Boolean](n)
    // each vertex is pushed at most deg(v) times => capacity 2m + n + 1
    var twoM = 0
    var i = 0
    while (i < n) { twoM += adj(i).length; i += 1 }
    val heap = new Heap(twoM + n + 1)
    dist(source) = 0.0
    heap.push(0.0, source)
    while (heap.size > 0) {
      val u = heap.popVertex()
      if (!done(u)) {
        done(u) = true
        val a  = adj(u)
        val wu = w(u)
        val du = dist(u)
        var k = 0
        while (k < a.length) {
          val v = a(k)
          if (!done(v)) {
            val nd = du + wu(k)
            if (nd < dist(v)) { dist(v) = nd; heap.push(nd, v) }
          }
          k += 1
        }
      }
    }
    dist
  }

  /** Full APSP matrix: Dijkstra from every source, parallel over sources.
    * The edge weights are read out of `d` once, before the sources run.
    */
  def allPairs(g: WGraph, d: SymMatrix, par: Par): SymMatrix = {
    val n   = g.n
    val w   = edgeWeights(g, d)
    val out = SymMatrix.zeros(n)
    par.parFor(n) { src =>
      val row = dijkstra(g.adj, w, src)
      System.arraycopy(row, 0, out.data, src * n, n)
    }
    out
  }
}
