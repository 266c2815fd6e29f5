package repro.pmfg

import repro.core.WGraph
import scala.collection.mutable.{ArrayBuffer, LongMap}

/** Left-right planarity test (Brandes' LR criterion, the algorithm behind
  * NetworkX's `check_planarity`), checking phase only — no embedding is
  * extracted, since the PMFG baseline needs just a planar / non-planar
  * verdict per candidate edge.
  *
  * Both DFS passes are iterative (explicit stacks), so graphs with deep
  * DFS trees (paths, large PMFGs) do not overflow the JVM stack.
  */
object Planarity {

  private val NoEdge = -1L

  /** Is the undirected graph over vertices 0..n-1 with the given edges
    * planar? Self-loops are ignored; parallel edges collapse.
    */
  def isPlanar(n: Int, edges: Iterable[(Int, Int)]): Boolean = {
    val g = WGraph.fromEdges(n, edges)
    val m = g.numEdges
    if (n > 2 && m > 3 * n - 6) return false
    if (n <= 3 || m <= 3) return true
    new LR(n, Array.tabulate(n)(g.adj)).run()
  }

  // encode directed edge (v, w) as v * n + w
  private final class Interval(var low: Long, var high: Long) {
    def isEmpty: Boolean = low == NoEdge && high == NoEdge
    def copy(): Interval = new Interval(low, high)
  }
  private object Interval { def empty: Interval = new Interval(NoEdge, NoEdge) }

  private final class ConflictPair(var l: Interval, var r: Interval) {
    def swap(): Unit = { val t = l; l = r; r = t }
  }

  private final class LR(n: Int, adj: Array[Array[Int]]) {
    @inline private def enc(v: Int, w: Int): Long = v.toLong * n + w
    @inline private def dst(e: Long): Int = (e % n).toInt
    @inline private def src(e: Long): Int = (e / n).toInt

    private val height     = Array.fill(n)(-1)
    private val parentEdge = Array.fill(n)(NoEdge)
    private val lowpt        = new LongMap[Int]()
    private val lowpt2       = new LongMap[Int]()
    private val nestingDepth = new LongMap[Int]()
    private val oriented     = new java.util.HashSet[Long]()
    private val outAdj       = Array.fill(n)(new ArrayBuffer[Int]())

    private val ref        = new LongMap[Long]()
    private val side       = new LongMap[Int]()
    private val lowptEdge  = new LongMap[Long]()
    private val stackBottom = new LongMap[ConflictPair]()
    private val stack       = new ArrayBuffer[ConflictPair]()

    private def top: ConflictPair = if (stack.isEmpty) null else stack(stack.length - 1)

    def run(): Boolean = {
      val roots = new ArrayBuffer[Int]()
      var v = 0
      while (v < n) {
        if (height(v) == -1) { height(v) = 0; roots += v; dfsOrientation(v) }
        v += 1
      }
      // sort oriented out-adjacency by nesting depth
      var u = 0
      while (u < n) {
        val a = outAdj(u)
        val sorted = a.toArray.sortBy(w => nestingDepth(enc(u, w)))
        a.clear(); a ++= sorted
        u += 1
      }
      roots.forall(dfsTesting)
    }

    /** DFS pass 1: orient edges, compute lowpt / lowpt2 / nesting depth. */
    private def dfsOrientation(root: Int): Unit = {
      val dfsStack = new ArrayBuffer[Int]()
      val ind      = new Array[Int](n)
      val skipInit = new java.util.HashSet[Long]()
      dfsStack += root
      while (dfsStack.nonEmpty) {
        val v = dfsStack.remove(dfsStack.length - 1)
        val e = parentEdge(v)
        var break = false
        while (!break && ind(v) < adj(v).length) {
          val w  = adj(v)(ind(v))
          val vw = enc(v, w)
          var skipped = false
          if (!skipInit.contains(vw)) {
            if (oriented.contains(vw) || oriented.contains(enc(w, v))) {
              ind(v) += 1
              skipped = true
            } else {
              oriented.add(vw)
              outAdj(v) += w
              lowpt(vw)  = height(v)
              lowpt2(vw) = height(v)
              if (height(w) == -1) { // tree edge: recurse into w first
                parentEdge(w) = vw
                height(w) = height(v) + 1
                dfsStack += v
                dfsStack += w
                skipInit.add(vw)
                break = true
                skipped = true
              } else {
                lowpt(vw) = height(w) // back edge
              }
            }
          }
          if (!skipped) {
            // determine nesting depth
            nestingDepth(vw) = 2 * lowpt(vw) + (if (lowpt2(vw) < height(v)) 1 else 0)
            // update lowpoints of parent edge e
            if (e != NoEdge) {
              if (lowpt(vw) < lowpt(e)) {
                lowpt2(e) = math.min(lowpt(e), lowpt2(vw))
                lowpt(e)  = lowpt(vw)
              } else if (lowpt(vw) > lowpt(e)) {
                lowpt2(e) = math.min(lowpt2(e), lowpt(vw))
              } else {
                lowpt2(e) = math.min(lowpt2(e), lowpt2(vw))
              }
            }
            ind(v) += 1
          }
        }
      }
    }

    @inline private def conflicting(i: Interval, b: Long): Boolean =
      !i.isEmpty && lowpt(i.high) > lowpt(b)

    private def lowest(p: ConflictPair): Int = {
      if (p.l.isEmpty) lowpt(p.r.low)
      else if (p.r.isEmpty) lowpt(p.l.low)
      else math.min(lowpt(p.l.low), lowpt(p.r.low))
    }

    /** DFS pass 2: the LR test itself. Returns false on a violation. */
    private def dfsTesting(root: Int): Boolean = {
      val dfsStack = new ArrayBuffer[Int]()
      val ind      = new Array[Int](n)
      val skipInit = new java.util.HashSet[Long]()
      dfsStack += root
      while (dfsStack.nonEmpty) {
        val v = dfsStack.remove(dfsStack.length - 1)
        val e = parentEdge(v)
        var skipFinal = false
        var break = false
        while (!break && ind(v) < outAdj(v).length) {
          val w  = outAdj(v)(ind(v))
          val ei = enc(v, w)
          var recursed = false
          if (!skipInit.contains(ei)) {
            stackBottom(ei) = top
            if (ei == parentEdge(w)) { // tree edge: recurse into w first
              dfsStack += v
              dfsStack += w
              skipInit.add(ei)
              skipFinal = true
              break = true
              recursed = true
            } else { // back edge
              lowptEdge(ei) = ei
              stack += new ConflictPair(Interval.empty, new Interval(ei, ei))
            }
          }
          if (!recursed) {
            if (lowpt(ei) < height(v)) { // ei has a return edge
              if (w == outAdj(v)(0)) {
                lowptEdge(e) = lowptEdge(ei)
              } else if (!addConstraints(ei, e)) {
                return false // not planar
              }
            }
            ind(v) += 1
          }
        }
        if (!skipFinal && e != NoEdge) removeBackEdges(e)
      }
      true
    }

    private def addConstraints(ei: Long, e: Long): Boolean = {
      val p = new ConflictPair(Interval.empty, Interval.empty)
      // merge return edges of ei into p.r
      var loop = true
      while (loop) {
        val q = stack.remove(stack.length - 1)
        if (!q.l.isEmpty) q.swap()
        if (!q.l.isEmpty) return false // not planar
        if (lowpt(q.r.low) > lowpt(e)) {
          if (p.r.isEmpty) p.r = q.r.copy()
          else ref(p.r.low) = q.r.high
          p.r.low = q.r.low
        } else { // align
          ref(q.r.low) = lowptEdge(e)
        }
        if (top eq stackBottom.getOrElse(ei, null)) loop = false
      }
      // merge conflicting return edges of e_1..e_{i-1} into p.l
      while (top != null && (conflicting(top.l, ei) || conflicting(top.r, ei))) {
        val q = stack.remove(stack.length - 1)
        if (conflicting(q.r, ei)) q.swap()
        if (conflicting(q.r, ei)) return false // not planar
        // merge interval below lowpt(ei) into p.r
        ref(p.r.low) = q.r.high
        if (q.r.low != NoEdge) p.r.low = q.r.low
        if (p.l.isEmpty) p.l = q.l.copy()
        else ref(p.l.low) = q.l.high
        p.l.low = q.l.low
      }
      if (!(p.l.isEmpty && p.r.isEmpty)) stack += p
      true
    }

    private def removeBackEdges(e: Long): Unit = {
      val u = src(e)
      // drop entire conflict pairs whose lowest return point is u
      while (stack.nonEmpty && lowest(top) == height(u)) {
        val p = stack.remove(stack.length - 1)
        if (p.l.low != NoEdge) side(p.l.low) = -1
      }
      if (stack.nonEmpty) { // one more conflict pair to consider
        val p = stack.remove(stack.length - 1)
        // trim left interval
        while (p.l.high != NoEdge && dst(p.l.high) == u)
          p.l.high = ref.getOrElse(p.l.high, NoEdge)
        if (p.l.high == NoEdge && p.l.low != NoEdge) { // just emptied
          ref(p.l.low)  = p.r.low
          side(p.l.low) = -1
          p.l.low = NoEdge
        }
        // trim right interval
        while (p.r.high != NoEdge && dst(p.r.high) == u)
          p.r.high = ref.getOrElse(p.r.high, NoEdge)
        if (p.r.high == NoEdge && p.r.low != NoEdge) {
          ref(p.r.low)  = p.l.low
          side(p.r.low) = -1
          p.r.low = NoEdge
        }
        stack += p
      }
      // side of e is the side of a highest return edge
      if (lowpt(e) < height(u)) { // e has return edge
        val hl = top.l.high
        val hr = top.r.high
        if (hl != NoEdge && (hr == NoEdge || lowpt(hl) > lowpt(hr))) ref(e) = hl
        else ref(e) = hr
      }
    }
  }
}
