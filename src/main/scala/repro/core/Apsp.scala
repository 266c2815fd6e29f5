package repro.core

/** All-pairs shortest paths on the (sparse, planar) TMFG under the
  * dissimilarity measure D, one row per source in parallel (paper
  * Algorithm 4, Line 7). This is the asymptotic bottleneck of the parallel
  * DBHT (paper §VI), which the runtime-decomposition bench (T3) reproduces.
  *
  * The paper runs one SSSP per source; here each row is one sweep in a
  * maximum cardinality search (MCS) order. A TMFG is a planar 3-tree, so
  * MCS orders it with no fill (Tarjan & Yannakakis, SIAM J. Comput. 1984):
  * every vertex after the fourth has exactly three earlier neighbours, a
  * triangle. A source's row is then PHAST's two phases (Delling et al.,
  * IPDPS 2011) on the graph's own edges: a search up through earlier
  * neighbours, and one pass down over all vertices in order. A check of
  * every later→earlier arc, with a label-correcting repair, makes the row
  * exact for any order, any graph and any non-negative weights.
  *
  * Exactness: every label is the in-order fl sum of a real walk from the
  * source, so it is at least Dijkstra's value. When the repair's heap is
  * empty no arc can lower any label: earlier→later arcs hold by the pass,
  * later→earlier arcs by the check, and every label that fell since was
  * relaxed again. `fl(a + w)` is monotone in `a`, so induction along
  * Dijkstra's best walk bounds each label by Dijkstra's value, and the row
  * is bit-identical to Dijkstra's. The order only decides how rare repairs
  * are: none on the TMFGs of Pearson dissimilarities, a metric.
  */
object Apsp {

  /** Sources per block of `allPairs`; each block allocates one `Workspace`. */
  private val Block = 16

  /** The graph `g` weighted by D, and its MCS order. `w(k) = d(u, g.nbr(k))`
    * for vertex u's neighbour `g.nbr(k)`, `k` in `g.off(u) until
    * g.off(u + 1)`; the topology is `g`'s own CSR arrays, not a copy.
    * `ord(p)` is the vertex at position p and `pos` its inverse. Position
    * p's earlier neighbours are `pre(preOff(p) until preOff(p + 1))`, as
    * positions, with their weights in `preW`. All O(n) for the planar TMFG,
    * which is why `allPairs` shares it with every task.
    */
  final class Edges private[Apsp] (val g: WGraph, val w: Array[Double], val ord: Array[Int], val pos: Array[Int],
                                   val preOff: Array[Int], val pre: Array[Int], val preW: Array[Double])
      extends Serializable

  /** The edges of `g` under `d`, in MCS order: each step numbers the
    * vertex with the most numbered neighbours, ties to the smaller id, so
    * the order is deterministic. A NaN, infinite or negative `d(u, v)` on
    * an edge fails here, naming the edge and the value, before any source
    * runs.
    */
  def edges(g: WGraph, d: SymMatrix): Edges = {
    val n = g.n; val off = g.off; val nbr = g.nbr
    val w = new Array[Double](nbr.length)
    var u = 0
    while (u < n) {
      var k = off(u)
      while (k < off(u + 1)) {
        val x = d(u, nbr(k))
        require(x >= 0.0 && x < Double.PositiveInfinity,
          s"edge ($u, ${nbr(k)}) has dissimilarity $x: APSP needs finite, non-negative edge weights")
        w(k) = x
        k += 1
      }
      u += 1
    }
    // MCS: a lazy heap keyed on (count desc, id asc), one entry per count rise
    val ord   = new Array[Int](n)
    val pos   = Array.fill(n)(-1)
    val count = new Array[Int](n)
    val heap  = new MinHeap(n + nbr.length)
    def key(v: Int): Long = (n - count(v)).toLong << 32 | v
    u = 0
    while (u < n) { heap.push(key(u), u); u += 1 }
    var p = 0
    while (p < n) {
      val k0 = heap.topKey
      val v  = heap.pop()
      if (pos(v) < 0 && k0 == key(v)) {
        pos(v) = p; ord(p) = v; p += 1
        var k = off(v)
        while (k < off(v + 1)) {
          val x = nbr(k)
          if (pos(x) < 0) { count(x) += 1; heap.push(key(x), x) }
          k += 1
        }
      }
    }
    // each position's earlier neighbours, as positions, with their weights
    val preOff = new Array[Int](n + 1)
    p = 0
    while (p < n) {
      var c = 0
      var k = off(ord(p))
      while (k < off(ord(p) + 1)) { if (pos(nbr(k)) < p) c += 1; k += 1 }
      preOff(p + 1) = preOff(p) + c
      p += 1
    }
    val pre  = new Array[Int](preOff(n))
    val preW = new Array[Double](preOff(n))
    var j = 0
    p = 0
    while (p < n) {
      var k = off(ord(p))
      while (k < off(ord(p) + 1)) {
        val q = pos(nbr(k))
        if (q < p) { pre(j) = q; preW(j) = w(k); j += 1 }
        k += 1
      }
      p += 1
    }
    new Edges(g, w, ord, pos, preOff, pre, preW)
  }

  /** Binary min-heap of (key, value) pairs on primitive arrays, growing
    * as needed. Stale entries are left in and skipped by the caller.
    */
  private final class MinHeap(capacity: Int) {
    private var keys = new Array[Long](math.max(capacity, 16))
    private var vals = new Array[Int](keys.length)
    var size = 0

    def topKey: Long = keys(0)

    def push(key: Long, v: Int): Unit = {
      if (size == keys.length) {
        keys = java.util.Arrays.copyOf(keys, 2 * size)
        vals = java.util.Arrays.copyOf(vals, 2 * size)
      }
      var i = size
      size += 1
      while (i > 0 && keys((i - 1) >> 1) > key) {
        val par = (i - 1) >> 1
        keys(i) = keys(par); vals(i) = vals(par)
        i = par
      }
      keys(i) = key; vals(i) = v
    }

    /** Removes the smallest key's entry and returns its value. */
    def pop(): Int = {
      val top = vals(0)
      size -= 1
      val key = keys(size); val v = vals(size)
      var i = 0
      var done = size == 0
      while (!done) {
        val l = 2 * i + 1
        if (l >= size) done = true
        else {
          val c = if (l + 1 < size && keys(l + 1) < keys(l)) l + 1 else l
          if (keys(c) < key) { keys(i) = keys(c); vals(i) = vals(c); i = c }
          else done = true
        }
      }
      keys(i) = key; vals(i) = v
      top
    }
  }

  /** Per-worker working arrays for `row`, reused across sources: the
    * labels by position, the up search's marks and visited positions, and
    * the repair's heap.
    */
  final class Workspace(e: Edges) {
    private[Apsp] val label = new Array[Double](e.g.n)
    private[Apsp] val mark  = new Array[Boolean](e.g.n)
    private[Apsp] val up    = new Array[Int](e.g.n)
    private[Apsp] val heap  = new MinHeap(16)
  }

  /** Shortest-path distances from `src` over `e`, written straight into
    * `out(base until base + e.g.n)` (+∞ where unreachable). `work` is the
    * caller's workspace, one per worker. In position numbering:
    *  1. up search: the positions reachable from the source through
    *     earlier neighbours, relaxed in descending position (a DAG, so no
    *     distance queue);
    *  2. pass: each position in ascending order takes the minimum over its
    *     earlier neighbours, and is written to `out(base + ord(p))`;
    *  3. check, fused into the pass (an earlier label is final there):
    *     each later→earlier arc that lowers a label queues its head;
    *  4. repair: label-correcting from the queued positions over the full
    *     CSR, by a binary heap on the label, then the row is written again.
    * A position with three earlier neighbours (on a TMFG, every position
    * from the fourth on) takes an unrolled copy of the pass and the check.
    * Returns the number of labels the check and the repair lowered, 0 when
    * the sweep alone is exact. Labels are never -0.0, so their raw bits
    * order them as the heap's keys.
    */
  def row(e: Edges, src: Int, out: Array[Double], base: Int, work: Workspace): Int = {
    val n = e.g.n; val ord = e.ord; val preOff = e.preOff; val pre = e.pre; val preW = e.preW
    val label = work.label; val mark = work.mark; val up = work.up; val heap = work.heap

    // 1. up search: mark the reachable positions (the pass starts every
    // unmarked one at +∞), then relax them in descending position
    val s = e.pos(src)
    mark(s) = true
    label(s) = 0.0
    up(0) = s
    var top = 1
    var i = 0
    while (i < top) {
      var k = preOff(up(i))
      while (k < preOff(up(i) + 1)) {
        val q = pre(k)
        if (!mark(q)) { mark(q) = true; label(q) = Double.PositiveInfinity; up(top) = q; top += 1 }
        k += 1
      }
      i += 1
    }
    java.util.Arrays.sort(up, 0, top)
    i = top - 1
    while (i >= 0) {
      val p = up(i); val lp = label(p)
      var k = preOff(p)
      while (k < preOff(p + 1)) {
        val nd = lp + preW(k)
        if (nd < label(pre(k))) label(pre(k)) = nd
        k += 1
      }
      i -= 1
    }

    // 3. check p's arcs into its earlier neighbours, queueing every label
    // they lower; returns how many
    def check(lp: Double, start: Int, end: Int): Int = {
      var c = 0
      var k = start
      while (k < end) {
        val q  = pre(k)
        val nd = lp + preW(k)
        if (nd < label(q)) {
          label(q) = nd
          heap.push(java.lang.Double.doubleToRawLongBits(nd), q)
          c += 1
        }
        k += 1
      }
      c
    }

    // 2-3. pass and check
    var lowered = 0
    var p = 0
    while (p < n) {
      val start = preOff(p); val end = preOff(p + 1)
      var lp = Double.PositiveInfinity
      if (mark(p)) { mark(p) = false; lp = label(p) }
      if (end - start == 3) {
        val q0 = pre(start); val q1 = pre(start + 1); val q2 = pre(start + 2)
        val w0 = preW(start); val w1 = preW(start + 1); val w2 = preW(start + 2)
        val l0 = label(q0); val l1 = label(q1); val l2 = label(q2)
        if (l0 + w0 < lp) lp = l0 + w0
        if (l1 + w1 < lp) lp = l1 + w1
        if (l2 + w2 < lp) lp = l2 + w2
        label(p) = lp
        if (lp + w0 < l0 || lp + w1 < l1 || lp + w2 < l2) lowered += check(lp, start, end)
      } else {
        var k = start
        while (k < end) {
          val nd = label(pre(k)) + preW(k)
          if (nd < lp) lp = nd
          k += 1
        }
        label(p) = lp
        lowered += check(lp, start, end)
      }
      out(base + ord(p)) = lp
      p += 1
    }

    // 4. repair, then write the row again
    if (heap.size > 0) {
      val off = e.g.off; val nbr = e.g.nbr; val w = e.w; val pos = e.pos
      while (heap.size > 0) {
        val key = heap.topKey
        val q   = heap.pop()
        val lq  = label(q)
        if (key == java.lang.Double.doubleToRawLongBits(lq)) {
          val v = ord(q)
          var k = off(v)
          while (k < off(v + 1)) {
            val x  = pos(nbr(k))
            val nd = lq + w(k)
            if (nd < label(x)) {
              label(x) = nd
              heap.push(java.lang.Double.doubleToRawLongBits(nd), x)
              lowered += 1
            }
            k += 1
          }
        }
      }
      p = 0
      while (p < n) { out(base + ord(p)) = label(p); p += 1 }
    }
    lowered
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
