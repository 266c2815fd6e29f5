package repro.core

import scala.collection.mutable.ArrayBuffer

/** Output of TMFG construction (paper Algorithm 1 + 2).
  *
  * @param graph    the filtered graph (3n-6 edges, maximal planar)
  * @param tree     the bubble tree built during construction
  * @param rounds   number of batch rounds executed (the paper's rho)
  * @param insertionOrder vertices in the order they were inserted (the
  *                 first four are the seed clique)
  */
final case class TmfgResult(graph: WGraph, tree: BubbleTree, rounds: Int,
                            insertionOrder: Array[Int])

/** Parallel batched TMFG construction (paper §IV, Algorithm 1).
  *
  * Up to `prefix` vertices are inserted per round: the faces with the
  * highest best-vertex gains are selected from the per-face GAINS table
  * (`selectBatch`), conflicts where one vertex is the best of several
  * faces are resolved in favor of the max-gain face, and the selected
  * vertices are inserted simultaneously. `prefix = 1` reproduces the
  * sequential TMFG of Massara et al. exactly.
  *
  * The GAINS table is maintained incrementally: each face caches its best
  * remaining vertex, and after a round only the faces whose cached best
  * vertex the batch inserted are updated (the paper's optimization over
  * rescanning all faces); the round's one pass over the alive faces finds
  * them. A scan of a face keeps its first `K` remaining vertices in
  * (gain desc, vertex asc) order, its candidate list. When a face's best
  * vertex is inserted, its new best is the first listed vertex that still
  * remains: a face's gains never change and the remaining set only
  * shrinks, so every unlisted remaining vertex still comes after every
  * listed one (the stopping rule of Fagin, Lotem and Naor's threshold
  * algorithm). Only a face whose K listed vertices are all inserted is
  * rescanned; a shorter list held every remaining vertex, so when it runs
  * out no vertex remains. After a round, the faces rescanned are the
  * three new faces per insertion and the stale faces whose lists ran out.
  *
  * One round engine, `build`, owns all of this state. The rescans are the
  * dominant work and the only part that fans out: one `candidates` task
  * per face, on a `Par` or on Spark (`Exec`).
  */
object Tmfg {

  /** Lines 9-10 of Algorithm 1: the faces whose cached best vertices form
    * the next batch, in batch order.
    *
    * Walks the alive faces `alive(0 until count)` in the order (gain desc,
    * face id asc) and keeps a face when its best vertex is not taken yet,
    * so a vertex goes to its max-gain face, until `prefix` faces are kept
    * or the faces run out. Faces without a best vertex (`bestV == -1`)
    * are skipped.
    *
    * Rather than sorting every alive face, it takes the first K faces of
    * that order with a bounded heap (K = 2 prefix to start) and walks only
    * those. The walk over the first K faces of a total order makes the same
    * decisions as the walk over all of them, so the result is exact when
    * it keeps `prefix` faces or K covers every alive face; otherwise
    * conflicts used up the candidates, and K doubles and the selection
    * runs again.
    */
  def selectBatch(alive: Array[Int], count: Int, bestV: Array[Int], bestGain: Array[Double],
                  prefix: Int): Array[Int] = {
    // f comes before g: higher gain, then lower face id; Double.compare
    // gives the order of a sort on (-gain, face)
    def before(f: Int, g: Int): Boolean = {
      val c = java.lang.Double.compare(bestGain(f), bestGain(g))
      c > 0 || (c == 0 && f < g)
    }
    // binary heap whose root is the face that comes last
    def siftDown(heap: Array[Int], size: Int): Unit = {
      var i = 0
      var done = false
      while (!done) {
        val l = 2 * i + 1
        if (l >= size) done = true
        else {
          val c = if (l + 1 < size && before(heap(l), heap(l + 1))) l + 1 else l
          if (before(heap(i), heap(c))) {
            val t = heap(i); heap(i) = heap(c); heap(c) = t
            i = c
          } else done = true
        }
      }
    }
    // the first k faces of the order, in order
    def firstK(k: Int): Array[Int] = {
      val heap = new Array[Int](k)
      var size = 0
      var j = 0
      while (j < count) {
        val f = alive(j)
        if (size < k) {
          heap(size) = f
          var i = size
          size += 1
          while (i > 0 && before(heap((i - 1) / 2), heap(i))) {
            val p = (i - 1) / 2
            val t = heap(i); heap(i) = heap(p); heap(p) = t
            i = p
          }
        } else if (before(f, heap(0))) {
          heap(0) = f
          siftDown(heap, size)
        }
        j += 1
      }
      val out = new Array[Int](size)
      while (size > 0) {
        size -= 1
        out(size) = heap(0)
        heap(0) = heap(size)
        siftDown(heap, size)
      }
      out
    }

    // conflict resolution over the first k faces
    def picksAmongFirst(k: Int): Array[Int] = {
      val candidates = firstK(k)
      val taken = new scala.collection.mutable.BitSet()
      val picks = new ArrayBuffer[Int](prefix)
      var i = 0
      while (i < candidates.length && picks.length < prefix) {
        val f = candidates(i)
        val v = bestV(f)
        if (v >= 0 && taken.add(v)) picks += f
        i += 1
      }
      picks.toArray
    }

    var k = math.min(count.toLong, 2L * prefix).toInt
    var picks = picksAmongFirst(k)
    while (picks.length < prefix && k < count) {
      k = math.min(count.toLong, 2L * k).toInt
      picks = picksAmongFirst(k)
    }
    picks
  }

  /** Length of a full candidate list. */
  final val K = 16

  /** A face's candidate list: remaining vertices and their gains to the
    * face, at most `K`, in (gain desc, vertex asc) order. A list shorter
    * than `K` holds every vertex that remained when it was made.
    */
  final case class Candidates(verts: Array[Int], gains: Array[Double])

  /** The scan kernel of Algorithm 1's GAINS updates: the first `K`
    * vertices of `rem(0 until remCount)` in the order (gain to the face
    * (a, b, c) desc, vertex asc). `sd` is the row-major n x n similarity
    * matrix. The result does not depend on the order of `rem`; a vertex
    * whose gain is not above -inf is never listed.
    */
  def candidates(sd: Array[Double], n: Int, a: Int, b: Int, c: Int,
                 rem: Array[Int], remCount: Int): Candidates = {
    val r0 = a * n; val r1 = b * n; val r2 = c * n
    val vs = new Array[Int](K)
    val gs = new Array[Double](K)
    var len = 0
    // a vertex enters if it comes before (lastG, lastV): the last entry
    // of a full list, and (-inf, -1) until the list is full
    var lastG = Double.NegativeInfinity
    var lastV = -1
    var i = 0
    while (i < remCount) {
      val v = rem(i)
      val g = sd(r0 + v) + sd(r1 + v) + sd(r2 + v)
      if (g > lastG || (g == lastG && v < lastV)) {
        var j = if (len < K) { len += 1; len - 1 } else K - 1
        while (j > 0 && (g > gs(j - 1) || (g == gs(j - 1) && v < vs(j - 1)))) {
          vs(j) = vs(j - 1); gs(j) = gs(j - 1)
          j -= 1
        }
        vs(j) = v; gs(j) = g
        if (len == K) { lastG = gs(K - 1); lastV = vs(K - 1) }
      }
      i += 1
    }
    if (len == K) Candidates(vs, gs) else Candidates(vs.take(len), gs.take(len))
  }

  /** Fails unless a TMFG over n vertices exists (n >= 4). */
  def checkN(n: Int): Unit = require(n >= 4, s"TMFG needs at least 4 vertices, got $n")

  /** Algorithm 1 with the bubble tree of Algorithm 2: seed clique, face
    * tables, candidate lists, batch selection and insertion run on the
    * driver; each round's GAINS rescans fan out on `exec`, one
    * `candidates` task per face to rescan, with S shared once and the
    * remaining vertices shared per round.
    */
  def build(s: SymMatrix, prefix: Int, exec: Exec): TmfgResult = {
    val n = s.n
    checkN(n)
    require(prefix >= 1, s"prefix must be >= 1, got $prefix")

    // --- seed: the four vertices with largest row sums in S ---
    val rowSums = exec.local.parMap(n)(i => s.rowSum(i))
    // a row sum is finite iff every entry of the row is (barring overflow)
    val badRow = rowSums.indexWhere(x => !java.lang.Double.isFinite(x))
    require(badRow < 0, s"S must be finite: row $badRow sums to ${rowSums(badRow)}")
    val seed = (0 until n).sortBy(i => (-rowSums(i), i)).take(4).toArray

    exec.share(s.data) { sd =>
      // the 3n-6 edges (eu(i), ev(i)): the seed's six, then three per insertion
      val eu = new Array[Int](3 * n - 6)
      val ev = new Array[Int](3 * n - 6)
      var numEdges = 0
      def addEdge(u: Int, v: Int): Unit = { eu(numEdges) = u; ev(numEdges) = v; numEdges += 1 }
      for (i <- 0 until 4; j <- i + 1 until 4) addEdge(seed(i), seed(j))

      // remaining vertices in ascending order, compacted after each round
      // so that a scan reads the rows of S in a monotone order
      val rem = (0 until n).filterNot(seed.contains).toArray
      var remCount = rem.length
      val inserted = new Array[Boolean](n)

      // --- face tables: 4 seed faces, then each insertion kills one face
      // and adds three, so 3n-8 faces are ever made and 2n-4 are alive at
      // the end ---
      val maxFaces = 3 * n - 8
      val faceVerts  = new Array[Int](3 * maxFaces) // face f is faceVerts(3f until 3f+3)
      val faceBubble = new Array[Int](maxFaces)
      val faceAlive  = new Array[Boolean](maxFaces)
      val bestV      = new Array[Int](maxFaces)
      val bestGain   = new Array[Double](maxFaces)
      var numFaces   = 0
      val alive      = new Array[Int](2 * n - 4)
      var aliveCount = 0
      // candidate lists: face f's list is candV/candG(K f until K f +
      // candLen(f)), and its cached best vertex is entry candHead(f)
      val candV    = new Array[Int](K * maxFaces)
      val candG    = new Array[Double](K * maxFaces)
      val candLen  = new Array[Int](maxFaces)
      val candHead = new Array[Int](maxFaces)

      // the bubble tree (Algorithm 2): bubble b is cliques(4b until 4b+4),
      // the seed clique, then per insertion its face and the new vertex
      val cliques = java.util.Arrays.copyOf(seed, 4 * (n - 3))
      val parent  = Array.fill(n - 3)(-1)
      var root    = 0

      def addFace(a: Int, b: Int, c: Int, bubble: Int): Int = {
        val id = numFaces
        faceVerts(3 * id) = a; faceVerts(3 * id + 1) = b; faceVerts(3 * id + 2) = c
        faceBubble(id) = bubble
        faceAlive(id) = true
        bestV(id) = -1
        bestGain(id) = Double.NegativeInfinity
        numFaces += 1
        id
      }

      // makes entry h of face f's list its cached best vertex, or leaves the
      // face without one when h is past the end
      def setBest(f: Int, h: Int): Unit = {
        candHead(f) = h
        if (h < candLen(f)) {
          bestV(f) = candV(K * f + h); bestGain(f) = candG(K * f + h)
        } else {
          bestV(f) = -1; bestGain(f) = Double.NegativeInfinity
        }
      }

      val f0 = addFace(seed(0), seed(1), seed(2), 0)
      addFace(seed(0), seed(1), seed(3), 0)
      addFace(seed(0), seed(2), seed(3), 0)
      addFace(seed(1), seed(2), seed(3), 0)
      var outerFaceId = f0

      // faces to rescan: the seed faces, then after each round the new ones
      // and the stale faces whose full lists ran out; all distinct and
      // alive, so at most 2n-4 of them
      val dirty = new Array[Int](2 * n - 4)
      var numDirty = 4
      for (f <- 0 until 4) { alive(f) = f; dirty(f) = f }
      aliveCount = 4

      val insertionOrder = java.util.Arrays.copyOf(seed, n)
      var numInserted = 4

      var rounds = 0
      while (remCount > 0) {
        rounds += 1

        // --- GAINS update: one rescan task per dirty face ---
        val tris = dirty.take(numDirty).map(f => faceVerts.slice(3 * f, 3 * f + 3))
        val rc = remCount // a task captures this value, not the var
        // a rescan reads 3 remCount cells of S; a task takes at least
        // 2000 / remCount faces, so a round of a few rescans on a long
        // remaining list still spreads over the workers, and a late
        // round with a short list stays whole
        val lists = exec.share(rem) { rm =>
          exec.map(tris, math.max(1, 2000 / rc))(t => candidates(sd(), n, t(0), t(1), t(2), rm(), rc))
        }
        for (i <- 0 until numDirty) {
          val f = dirty(i)
          val l = lists(i)
          System.arraycopy(l.verts, 0, candV, K * f, l.verts.length)
          System.arraycopy(l.gains, 0, candG, K * f, l.gains.length)
          candLen(f) = l.verts.length
          setBest(f, 0)
        }

        // --- Lines 9-10: pick up to `prefix` vertex-face pairs; a batch
        // holds distinct remaining vertices, so never more than remCount ---
        val selected = selectBatch(alive, aliveCount, bestV, bestGain, math.min(prefix, remCount))
        if (selected.isEmpty)
          throw new IllegalStateException(
            s"round $rounds found no face with a best vertex while $remCount vertices remain")

        // --- Lines 11-17: insert the batch ---
        numDirty = 0
        for (f <- selected) {
          val v = bestV(f)
          val t0 = faceVerts(3 * f); val t1 = faceVerts(3 * f + 1); val t2 = faceVerts(3 * f + 2)
          inserted(v) = true
          insertionOrder(numInserted) = v
          numInserted += 1
          addEdge(v, t0); addEdge(v, t1); addEdge(v, t2)

          // bubble tree update (Algorithm 2)
          val bStar = numInserted - 4
          cliques(4 * bStar) = t0; cliques(4 * bStar + 1) = t1
          cliques(4 * bStar + 2) = t2; cliques(4 * bStar + 3) = v
          val wasOuter = f == outerFaceId
          if (wasOuter) { parent(root) = bStar; root = bStar } else parent(bStar) = faceBubble(f)

          // replace face f with the three new faces of bStar
          faceAlive(f) = false
          val nf1 = addFace(v, t0, t1, bStar)
          val nf2 = addFace(v, t1, t2, bStar)
          val nf3 = addFace(v, t0, t2, bStar)
          if (wasOuter) outerFaceId = nf1
          dirty(numDirty) = nf1; dirty(numDirty + 1) = nf2; dirty(numDirty + 2) = nf3
          numDirty += 3
        }

        // drop the batch from the remaining list, keeping it ascending
        var w = 0
        var i = 0
        while (i < remCount) {
          if (!inserted(rem(i))) { rem(w) = rem(i); w += 1 }
          i += 1
        }
        remCount = w

        // update the alive-face list: drop killed faces, append the new ones
        // (so far the only entries of `dirty`). A kept face whose cached best
        // vertex the batch inserted is stale: it moves to the next listed
        // vertex that remains, or is rescanned when a full list runs out
        val numNew = numDirty
        w = 0
        i = 0
        while (i < aliveCount) {
          val f = alive(i)
          if (faceAlive(f)) {
            alive(w) = f; w += 1
            if (bestV(f) >= 0 && inserted(bestV(f))) {
              var h = candHead(f) + 1
              while (h < candLen(f) && inserted(candV(K * f + h))) h += 1
              if (h < candLen(f) || candLen(f) < K) setBest(f, h)
              else { dirty(numDirty) = f; numDirty += 1 }
            }
          }
          i += 1
        }
        System.arraycopy(dirty, 0, alive, w, numNew)
        aliveCount = w + numNew
      }

      TmfgResult(WGraph.fromEdges(n, eu, ev), new BubbleTree(cliques, parent, root), rounds, insertionOrder)
    }
  }
}
