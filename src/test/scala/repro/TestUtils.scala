package repro

import repro.core._
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag
import scala.util.Random

/** Brute-force reference implementations and generators shared by the
  * test suites. Everything here favors obviousness over speed.
  */
object TestUtils {

  /** Random symmetric matrix with entries in (-1, 1), unit diagonal —
    * shaped like a correlation matrix. Continuous entries make gain /
    * distance ties measure-zero, so tie-break conventions don't matter
    * when comparing implementations.
    */
  def randomSim(n: Int, seed: Long): SymMatrix = {
    val rng = new Random(seed)
    val m = SymMatrix.zeros(n)
    for (i <- 0 until n) {
      m.update(i, i, 1.0)
      for (j <- i + 1 until n) m.update(i, j, rng.nextDouble() * 2 - 1)
    }
    m
  }

  /** Graded hubs: s(i, j) = u_i u_j + 0.001 r_ij with r =
    * `randomSim(n, seed)`, u falling from 1.0 by 0.02 per hub and 0 for
    * the other vertices. The four strongest hubs are the seed, so every
    * face contains a hub until the hubs run out, and every face's best
    * vertex is the strongest remaining hub: batches shrink to one vertex
    * and batch selection has to widen past its first candidates.
    */
  def hubSim(n: Int, hubs: Int, seed: Long): SymMatrix = {
    val r = randomSim(n, seed)
    val u = Array.tabulate(n)(i => if (i < hubs) 1.0 - 0.02 * i else 0.0)
    val s = SymMatrix.zeros(n)
    for (i <- 0 until n) {
      s.update(i, i, 1.0)
      for (j <- i + 1 until n) s.update(i, j, u(i) * u(j) + 0.001 * r(i, j))
    }
    s
  }

  /** Random similarity matrix whose entries are multiples of 1/4 in
    * [-1, 1], unit diagonal. Sums of such values are exact, so many
    * faces have exact gain ties between several vertices.
    */
  def quantisedSim(n: Int, seed: Long): SymMatrix = {
    val rng = new Random(seed)
    val m = SymMatrix.zeros(n)
    for (i <- 0 until n) {
      m.update(i, i, 1.0)
      for (j <- i + 1 until n) m.update(i, j, (rng.nextInt(9) - 4) / 4.0)
    }
    m
  }

  /** Pearson matrix one pair at a time: each pair's dot product of the
    * z-scored rows summed from 0.0 in position order. `Correlation.pearson`
    * must match it bit for bit.
    */
  def pearsonOnePair(rows: Array[Array[Double]], par: Par): SymMatrix = {
    val n = rows.length
    val z = Correlation.zscore(rows)
    val m = SymMatrix.zeros(n)
    par.parFor(n) { i =>
      val zi = z(i)
      m.update(i, i, 1.0)
      var j = i + 1
      while (j < n) {
        val zj = z(j)
        var s  = 0.0
        var k  = 0
        while (k < zi.length) { s += zi(k) * zj(k); k += 1 }
        m.update(i, j, s)
        j += 1
      }
    }
    m
  }

  /** Random positive distance-like symmetric matrix, zero diagonal. */
  def randomDist(n: Int, seed: Long): SymMatrix = {
    val rng = new Random(seed)
    val m = SymMatrix.zeros(n)
    for (i <- 0 until n; j <- i + 1 until n) m.update(i, j, 0.1 + rng.nextDouble())
    m
  }

  /** Brute-force sequential TMFG (Massara et al.): on each step scan all
    * (face, remaining vertex) pairs for the max gain. Face bookkeeping
    * mirrors `Tmfg.build` (same seed clique, same face-replacement order)
    * so on tie-free inputs the outputs are identical.
    */
  def bruteTmfg(s: SymMatrix): (WGraph, Array[Int]) = {
    val n = s.n
    val rowSums = (0 until n).map(i => s.rowSum(i))
    val seed = (0 until n).sortBy(i => (-rowSums(i), i)).take(4).toArray
    val remaining = collection.mutable.TreeSet.from((0 until n).filterNot(seed.contains))
    val edges = new ArrayBuffer[(Int, Int)]()
    for (i <- 0 until 4; j <- i + 1 until 4) edges += ((seed(i), seed(j)))
    val faces = new ArrayBuffer[Array[Int]]()
    faces += Array(seed(0), seed(1), seed(2))
    faces += Array(seed(0), seed(1), seed(3))
    faces += Array(seed(0), seed(2), seed(3))
    faces += Array(seed(1), seed(2), seed(3))
    val order = new ArrayBuffer[Int]()
    order ++= seed
    while (remaining.nonEmpty) {
      var bestGain = Double.NegativeInfinity
      var bestF = -1
      var bestV = -1
      for (f <- faces.indices; v <- remaining) {
        val t = faces(f)
        val g = s(t(0), v) + s(t(1), v) + s(t(2), v)
        if (g > bestGain) { bestGain = g; bestF = f; bestV = v }
      }
      val t = faces(bestF)
      remaining -= bestV
      order += bestV
      edges += ((bestV, t(0))); edges += ((bestV, t(1))); edges += ((bestV, t(2)))
      faces.remove(bestF)
      faces += Array(bestV, t(0), t(1))
      faces += Array(bestV, t(1), t(2))
      faces += Array(bestV, t(0), t(2))
    }
    (WGraph.fromEdges(n, edges), order.toArray)
  }

  /** Brute-force batched TMFG (Algorithm 1 without the GAINS table): each
    * round recomputes every alive face's best remaining vertex from
    * scratch (ties to the lower vertex), sorts all alive faces by (gain
    * desc, face id asc) and inserts the first `prefix` of them whose best
    * vertices are distinct. Faces are numbered as in `Tmfg.build`: a
    * killed face keeps its id and the three faces replacing it take the
    * next ids, in batch order. Returns graph, insertion order and rounds.
    */
  def bruteBatchedTmfg(s: SymMatrix, prefix: Int): (WGraph, Array[Int], Int) = {
    val n = s.n
    val rowSums = (0 until n).map(i => s.rowSum(i))
    val seed = (0 until n).sortBy(i => (-rowSums(i), i)).take(4).toArray
    val remaining = collection.mutable.TreeSet.from((0 until n).filterNot(seed.contains))
    val edges = new ArrayBuffer[(Int, Int)]()
    for (i <- 0 until 4; j <- i + 1 until 4) edges += ((seed(i), seed(j)))
    val faces = ArrayBuffer(Array(seed(0), seed(1), seed(2)), Array(seed(0), seed(1), seed(3)),
                            Array(seed(0), seed(2), seed(3)), Array(seed(1), seed(2), seed(3)))
    val alive = ArrayBuffer(true, true, true, true)
    val order = ArrayBuffer.from(seed)
    var rounds = 0
    while (remaining.nonEmpty) {
      rounds += 1
      val best = for (f <- faces.indices if alive(f)) yield {
        val t = faces(f)
        var bestV = -1
        var bestGain = Double.NegativeInfinity
        for (v <- remaining) { // ascending, so ties keep the lower vertex
          val g = s(t(0), v) + s(t(1), v) + s(t(2), v)
          if (g > bestGain) { bestGain = g; bestV = v }
        }
        (f, bestV, bestGain)
      }
      val batch = best.sortBy { case (f, _, g) => (-g, f) }.distinctBy(_._2).take(prefix)
      for ((f, v, _) <- batch) {
        val t = faces(f)
        remaining -= v
        order += v
        edges += ((v, t(0))); edges += ((v, t(1))); edges += ((v, t(2)))
        alive(f) = false
        faces += Array(v, t(0), t(1)); faces += Array(v, t(1), t(2)); faces += Array(v, t(0), t(2))
        alive += true; alive += true; alive += true
      }
    }
    (WGraph.fromEdges(n, edges), order.toArray, rounds)
  }

  /** Whether `g` is a valid CSR graph: `off` starts at 0, ends at
    * `nbr.length` and never falls; every row is strictly ascending, within
    * 0..n-1 and free of self-loops; and every edge is in both its rows.
    */
  def isCsr(g: WGraph): Boolean =
    g.off.length == g.n + 1 && g.off(0) == 0 && g.off(g.n) == g.nbr.length &&
      (0 until g.n).forall { u =>
        val row = g.adj(u)
        g.off(u) <= g.off(u + 1) && row.forall(v => v >= 0 && v < g.n && v != u && g.hasEdge(v, u)) &&
          (1 until row.length).forall(k => row(k - 1) < row(k))
      }

  /** Vertex v's degree in `g`. */
  def degree(g: WGraph, v: Int): Int = g.off(v + 1) - g.off(v)

  /** Whether `g` stays connected once the vertices in `excluded` are
    * removed (BFS); true when no vertex is left.
    */
  def isConnectedExcluding(g: WGraph, excluded: Set[Int]): Boolean = {
    val active = (0 until g.n).filterNot(excluded.contains)
    if (active.isEmpty) return true
    val seen = collection.mutable.Set(active.head) ++= excluded
    val queue = collection.mutable.Queue(active.head)
    while (queue.nonEmpty)
      for (w <- g.adj(queue.dequeue()); if !seen.contains(w)) { seen += w; queue.enqueue(w) }
    seen.size == g.n
  }

  /** The m x m block of `apsp` over `members`: entry a * m + b is
    * `apsp(members(a), members(b))`, read from row `members(a)`.
    */
  def block(apsp: SymMatrix, members: Array[Int]): Array[Double] =
    for (a <- members; b <- members) yield apsp(a, b)

  /** The head of `Tmfg.candidates`: the best remaining vertex of face
    * (a, b, c), ties to the smaller vertex, and its gain; (-1, -inf) if none.
    */
  def bestVertex(sd: Array[Double], n: Int, a: Int, b: Int, c: Int, rem: Array[Int], remCount: Int): (Int, Double) = {
    val l = Tmfg.candidates(sd, n, a, b, c, rem, remCount)
    if (l.verts.isEmpty) (-1, Double.NegativeInfinity) else (l.verts(0), l.gains(0))
  }

  /** The kernel's distances from `source`: `Apsp.row` into a new array. */
  def sssp(g: WGraph, d: SymMatrix, source: Int): Array[Double] = {
    val e = Apsp.edges(g, d)
    val out = new Array[Double](g.n)
    Apsp.row(e, source, out, 0, new Apsp.Workspace(e))
    out
  }

  /** An independent copy of `m`. */
  def copy(m: SymMatrix): SymMatrix = {
    val c = SymMatrix.zeros(m.n)
    System.arraycopy(m.data, 0, c.data, 0, m.data.length)
    c
  }

  /** `par` as an `Exec` that shows every task function a Spark job would
    * ship (`map`'s `f`, `fillRows`' `rows` and `write`) to `onTask` before
    * running it on `par`. `share` hands out a `Handle`, whose value is
    * transient as a broadcast's is. Tests override `map` to watch or
    * replace a stage's tasks.
    */
  class TestExec(par: Par, onTask: AnyRef => Unit = _ => ()) extends Exec {
    def local: Par = par

    def map[A: ClassTag, B: ClassTag](items: Array[A], grain: Int)(f: A => B): Array[B] = {
      onTask(f)
      par.map(items, grain)(f)
    }

    def fillRows(out: Array[Double], width: Int, tasks: Int)(rows: Int => (Int, Int))
                (write: (Int, Array[Double], Int) => Unit)(after: Int => Unit): Unit = {
      onTask(rows)
      onTask(write)
      par.fillRows(out, width, tasks)(rows)(write)(after)
    }

    def share[A: ClassTag, R](x: A)(body: (() => A) => R): R = body(new Handle(x))
  }

  /** A shared value's handle that serializes without the value. */
  final class Handle[A](@transient private val x: A) extends (() => A) with Serializable {
    def apply(): A = x
  }

  /** Floyd–Warshall APSP over a graph with matrix edge weights. */
  def floydWarshall(g: WGraph, d: SymMatrix): Array[Array[Double]] = {
    val n = g.n
    val dist = Array.fill(n, n)(Double.PositiveInfinity)
    for (i <- 0 until n) dist(i)(i) = 0.0
    for ((u, v) <- g.edges) { dist(u)(v) = d(u, v); dist(v)(u) = d(u, v) }
    for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (dist(i)(k) + dist(k)(j) < dist(i)(j)) dist(i)(j) = dist(i)(k) + dist(k)(j)
    dist
  }

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

  /** Single-source Dijkstra over the adjacency arrays `adj` with the edge
    * weights `w` parallel to them (see `edgeWeights`). Returns the
    * distance array (Double.PositiveInfinity if unreachable). This is the
    * reference that `Apsp.row` must match bit for bit.
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

  /** Reference APSP: `dijkstra` from every source, one row per source. */
  def dijkstraRows(g: WGraph, d: SymMatrix): Array[Array[Double]] = {
    val w = edgeWeights(g, d)
    val adj = Array.tabulate(g.n)(g.adj)
    Array.tabulate(g.n)(src => dijkstra(adj, w, src))
  }

  /** The TMFG of `s` at `prefix` and the dissimilarity matrix of `s`: the
    * graph and edge weights the pipeline hands to APSP.
    */
  def tmfgWithD(s: SymMatrix, prefix: Int): (WGraph, SymMatrix) =
    (Par.withThreads(4)(par => Tmfg.build(s, prefix, par)).graph, Correlation.dissimilarity(s))

  /** A generated series set (n = 80, L = 64) followed by copies of its
    * first `copies` rows with `f` applied to every value, as the TMFG
    * (prefix 3) and dissimilarities of its Pearson matrix. Near-identical
    * copies give TMFG edges of zero or near-zero dissimilarity.
    */
  def tmfgOfCopies(copies: Int, seed: Long)(f: Double => Double): (WGraph, SymMatrix) = {
    val base = repro.data.TimeSeriesGen.make("copies", 80, 64, 4, noise = 1.0, seed = seed).data
    val rows = base ++ base.take(copies).map(_.map(f))
    tmfgWithD(Par.withThreads(4)(par => Correlation.pearson(rows, par)), 3)
  }

  /** Naive greedy HAC: scan all active cluster pairs for the minimum
    * linkage distance each step. Linkage evaluated from scratch over
    * members — no Lance-Williams, no chains.
    */
  def naiveHac(n: Int, pointDist: (Int, Int) => Double,
               method: Linkage.Method): Array[(Set[Int], Set[Int], Double)] = {
    var clusters: Vector[Set[Int]] = (0 until n).map(Set(_)).toVector
    val merges = new ArrayBuffer[(Set[Int], Set[Int], Double)]()
    def linkDist(a: Set[Int], b: Set[Int]): Double = method match {
      case Linkage.Complete => (for (x <- a; y <- b) yield pointDist(x, y)).max
      case Linkage.Average  =>
        (for (x <- a; y <- b) yield pointDist(x, y)).sum / (a.size.toDouble * b.size)
    }
    while (clusters.length > 1) {
      var bi = -1; var bj = -1; var bd = Double.PositiveInfinity
      for (i <- clusters.indices; j <- i + 1 until clusters.length) {
        val dd = linkDist(clusters(i), clusters(j))
        if (dd < bd) { bd = dd; bi = i; bj = j }
      }
      merges += ((clusters(bi), clusters(bj), bd))
      val merged = clusters(bi) ++ clusters(bj)
      clusters = clusters.zipWithIndex
        .filter { case (_, idx) => idx != bi && idx != bj }
        .map(_._1) :+ merged
    }
    merges.toArray
  }

  /** Interior/exterior connection values of a separating triangle,
    * computed the original way: BFS on G minus the triangle's vertices.
    * Returns (value into the component containing `interiorSeed`, value
    * into everything else).
    */
  def bruteInOutVals(g: WGraph, s: SymMatrix, tri: Array[Int], interiorSeed: Int): (Double, Double) = {
    val tset = tri.toSet
    val seen = collection.mutable.Set[Int]() ++ tset
    val queue = collection.mutable.Queue(interiorSeed)
    seen += interiorSeed
    val interior = collection.mutable.Set(interiorSeed)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      for (w <- g.adj(u); if !seen.contains(w)) { seen += w; interior += w; queue.enqueue(w) }
    }
    var inV = 0.0; var outV = 0.0
    for (u <- tri; w <- g.adj(u); if !tset.contains(w)) {
      if (interior.contains(w)) inV += s(u, w) else outV += s(u, w)
    }
    (inV, outV)
  }

  /** `Bubbles` from a vertex list and an out-neighbour list per bubble;
    * the edges are numbered bubble by bubble.
    */
  def bubbles(n: Int, vertsOf: Array[Array[Int]], outNbrs: Array[Array[Int]]): Bubbles = {
    val edges = for (b <- outNbrs.indices.toArray; c <- outNbrs(b)) yield (b, c)
    Bubbles(n, vertsOf.scanLeft(0)(_ + _.length), vertsOf.flatten, edges.map(_._1), edges.map(_._2))
  }

  /** The out-neighbours of each bubble, in edge order. */
  def outNbrs(bub: Bubbles): Array[Array[Int]] =
    Array.tabulate(bub.numBubbles)(b => bub.tail.indices.filter(bub.tail(_) == b).map(bub.head).toArray)

  /** The converging bubbles each bubble reaches, ascending, by one
    * depth-first walk per bubble along the out-edges (no visited set, as a
    * directed tree has one path to each bubble it reaches; more than
    * `numBubbles` pops mean a cycle, which fails).
    */
  def reachWalk(bub: Bubbles): Array[Array[Int]] = {
    val nb = bub.numBubbles
    val out = outNbrs(bub)
    Array.tabulate(nb) { start =>
      val sinks = new ArrayBuffer[Int]()
      val stack = collection.mutable.Stack(start)
      var popped = 0
      while (stack.nonEmpty) {
        val b = stack.pop()
        popped += 1
        require(popped <= nb, s"the walk from bubble $start pops more than $nb bubbles: the out-edges are not a tree")
        if (out(b).isEmpty) sinks += b
        out(b).foreach(stack.push)
      }
      sinks.sorted.toArray
    }
  }

  /** `Dbht.reachableConverging`'s bitsets as the converging bubbles each
    * bubble reaches, ascending.
    */
  def reachSinks(bub: Bubbles): Array[Array[Int]] = {
    val reach = Dbht.reachableConverging(bub)
    Array.tabulate(bub.numBubbles)(b => Dbht.reachedBy(Array(b), reach, bub.convergingBubbles))
  }
}
