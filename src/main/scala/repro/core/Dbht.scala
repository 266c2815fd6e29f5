package repro.core

/** A directed bubble decomposition in the generic form consumed by the
  * DBHT assignment/dendrogram stages: works both for the optimized TMFG
  * bubble tree (every bubble a 4-clique) and for the original quadratic
  * decomposition of arbitrary maximal planar graphs (PMFG bubbles may
  * have more than four vertices).
  *
  * @param n     number of graph vertices
  * @param off   bubble b's vertices are `verts(off(b) until off(b + 1))`
  * @param verts the vertices of all bubbles, bubble after bubble
  * @param tail  tree edge e points from bubble `tail(e)` ...
  * @param head  ... to bubble `head(e)`; every bubble-tree edge appears once
  */
final case class Bubbles(n: Int, off: Array[Int], verts: Array[Int], tail: Array[Int], head: Array[Int]) {
  def numBubbles: Int = off.length - 1

  def vertsOf(b: Int): Array[Int] = verts.slice(off(b), off(b + 1))

  /** The bubbles with no out-edge, ascending; computed once. */
  lazy val convergingBubbles: Array[Int] = {
    val hasOut = new Array[Boolean](numBubbles)
    for (t <- tail) hasOut(t) = true
    Array.range(0, numBubbles).filter(!hasOut(_))
  }

  /** bubble ids containing each vertex, ascending: one counting pass over `verts`. */
  def bubblesOfVertex: Array[Array[Int]] = {
    val bubbleAt = new Array[Int](verts.length)
    for (b <- 0 until numBubbles) java.util.Arrays.fill(bubbleAt, off(b), off(b + 1), b)
    Dbht.groupMembers(verts, n).map(_.map(bubbleAt(_)))
  }
}

/** Parallel DBHT (paper §V, Algorithm 4) on a directed bubble
  * decomposition: two-level vertex assignment (converging-bubble groups
  * via the chi attachment / mean shortest-path, then bubbles via chi'),
  * followed by the three-level complete-linkage dendrogram with the
  * paper's height re-assignment.
  */
object Dbht {

  /** Group (converging bubble) and bubble assignment per vertex. */
  final case class Assignments(group: Array[Int], bubble: Array[Int])

  /** Convert an optimized TMFG bubble tree into the generic form,
    * computing edge directions with the O(n) recursive algorithm. The
    * cliques are the bubbles' vertices as they are, four per bubble.
    */
  def bubblesFromTmfg(res: TmfgResult, s: SymMatrix, par: Par): Bubbles = {
    val tree = res.tree
    val towardChild = BubbleDirections.compute(tree, s, res.graph.weightedDegrees(s), par)
    // one edge per non-root bubble c, between c and parent(c)
    val cs = Array.range(0, tree.numBubbles).filter(_ != tree.root)
    val (tail, head) = cs.map(c => if (towardChild(c)) (tree.parent(c), c) else (c, tree.parent(c))).unzip
    Bubbles(res.graph.n, Array.tabulate(tree.numBubbles + 1)(4 * _), tree.cliques, tail, head)
  }

  /** Which converging bubbles each bubble reaches along directed edges
    * (paper Algorithm 4, Lines 5-6): bit j of `reach(b * w until b * w + w)`,
    * w = ceil(C/64) for C converging bubbles, is set iff b reaches
    * `convergingBubbles(j)`. One pass in Kahn's order on the reversed tree:
    * from the sinks back along the edges, a bubble, once done, ORs its
    * bitset into the tail of each edge into it, and a tail is done once the
    * heads of all its out-edges are. A bubble never done lies on or leads
    * into a cycle, which fails.
    */
  def reachableConverging(bub: Bubbles): Array[Long] = {
    val nb = bub.numBubbles
    val conv = bub.convergingBubbles
    val w = (conv.length + 63) / 64
    val reach = new Array[Long](nb * w)
    for (j <- conv.indices) reach(conv(j) * w + j / 64) = 1L << (j % 64)
    val into = groupMembers(bub.head, nb) // the edges into each bubble
    val outLeft = new Array[Int](nb)
    for (t <- bub.tail) outLeft(t) += 1
    val queue = java.util.Arrays.copyOf(conv, nb)
    var i = 0
    var done = conv.length
    while (i < done) {
      val b = queue(i); i += 1
      for (e <- into(b)) {
        val t = bub.tail(e)
        for (k <- 0 until w) reach(t * w + k) |= reach(b * w + k)
        outLeft(t) -= 1
        if (outLeft(t) == 0) { queue(done) = t; done += 1 }
      }
    }
    require(done == nb, s"bubble ${outLeft.indexWhere(_ > 0)} lies on or leads into a cycle: the out-edges are not a tree")
    reach
  }

  /** The converging bubbles `conv` that any of the bubbles `bs` reaches,
    * ascending: the union of their `reachableConverging` bitsets.
    */
  def reachedBy(bs: Array[Int], reach: Array[Long], conv: Array[Int]): Array[Int] = {
    val w = (conv.length + 63) / 64
    val bits = new Array[Long](w)
    for (b <- bs; k <- 0 until w) bits(k) |= reach(b * w + k)
    conv.indices.filter(j => (bits(j / 64) >>> (j % 64) & 1L) != 0).map(conv(_)).toArray
  }

  /** Sum of the graph-edge weights from v to the other members of bubble b
    * (for TMFG bubbles every member pair is an edge).
    */
  private def weightInto(v: Int, b: Int, bub: Bubbles, g: WGraph, s: SymMatrix): Double = {
    var acc = 0.0
    for (i <- bub.off(b) until bub.off(b + 1)) { val u = bub.verts(i); if (u != v && g.hasEdge(u, v)) acc += s(u, v) }
    acc
  }

  /** chi attachment of vertex v to bubble b (paper §V-C): `weightInto`
    * normalized by the bubble's edge count 3(|b|-2).
    */
  private def chi(v: Int, b: Int, bub: Bubbles, g: WGraph, s: SymMatrix): Double =
    weightInto(v, b, bub, g, s) / (3.0 * (bub.off(b + 1) - bub.off(b) - 2))

  /** Total graph-edge weight within bubble b: the denominator of chi'. */
  private def weightWithin(b: Int, bub: Bubbles, g: WGraph, s: SymMatrix): Double = {
    val (vs, hi) = (bub.verts, bub.off(b + 1))
    var acc = 0.0
    for (i <- bub.off(b) until hi; j <- i + 1 until hi) if (g.hasEdge(vs(i), vs(j))) acc += s(vs(i), vs(j))
    acc
  }

  /** WRITEMAX((score, b)) over the bubbles `bs`: the highest score, ties
    * to the larger bubble id; -1 when `bs` is empty.
    */
  private def argmax(bs: Array[Int])(score: Int => Double): Int = {
    var bestB = -1
    var best = Double.NegativeInfinity
    for (b <- bs) {
      val x = score(b)
      if (x > best || (x == best && b > bestB)) { best = x; bestB = b }
    }
    bestB
  }

  /** The vertices of each group id in 0 until `numGroups`, ascending (the
    * member order `planGroup`'s tie-breaks rely on), from one counting
    * pass over `group`; vertices with a negative group are left out.
    */
  private[core] def groupMembers(group: Array[Int], numGroups: Int): Array[Array[Int]] = {
    val size = new Array[Int](numGroups)
    for (b <- group) if (b >= 0) size(b) += 1
    val out = size.map(new Array[Int](_))
    java.util.Arrays.fill(size, 0)
    for (v <- group.indices) { val b = group(v); if (b >= 0) { out(b)(size(b)) = v; size(b) += 1 } }
    out
  }

  /** Two-level vertex assignment (Algorithm 4, Lines 1-23). */
  def assign(bub: Bubbles, g: WGraph, s: SymMatrix, apspD: SymMatrix, par: Par): Assignments = {
    val n = bub.n
    val conv = bub.convergingBubbles
    val isConv = new Array[Boolean](bub.numBubbles)
    conv.foreach(isConv(_) = true)
    val reach = reachableConverging(bub)
    val byVertex = bub.bubblesOfVertex

    // --- level 1: groups, by max chi over converging bubbles containing v ---
    val group = par.parMap(n, grain = 64)(v => argmax(byVertex(v).filter(isConv))(chi(v, _, bub, g, s)))

    // V_b^0: vertices assigned to each converging bubble so far
    val v0 = groupMembers(group, bub.numBubbles)

    // --- vertices in no converging bubble: WRITEMIN((Lbar, b)) over
    // reachable converging bubbles; ties prefer the smaller bubble id. ---
    par.parFor(n, grain = 64) { v =>
      if (group(v) == -1) {
        // converging bubbles reachable from any bubble containing v
        val cand = reachedBy(byVertex(v), reach, conv)
        // a walk along the out-edges of a finite tree ends at a sink, so
        // only a vertex in no bubble reaches no converging bubble
        require(cand.nonEmpty, s"vertex $v reaches no converging bubble: it lies in no bubble")
        var bestB = -1
        var bestL = Double.PositiveInfinity
        for (b <- cand) {
          val mem = v0(b)
          if (mem.nonEmpty) {
            var acc = 0.0
            for (u <- mem) acc += apspD(u, v)
            val lbar = acc / mem.length
            if (lbar < bestL || (lbar == bestL && (bestB == -1 || b < bestB))) { bestL = lbar; bestB = b }
          }
        }
        // every reachable converging bubble is empty so far (possible
        // only in degenerate inputs): fall back to max chi over them
        if (bestB == -1) bestB = argmax(cand)(chi(v, _, bub, g, s))
        group(v) = bestB
      }
    }

    // --- level 2: bubbles, by max chi' (the weight from v into b over the
    // weight within b) over bubbles containing v ---
    val within = par.parMap(bub.numBubbles, grain = 64)(weightWithin(_, bub, g, s))
    val bubbleOf = par.parMap(n, grain = 64) { v =>
      argmax(byVertex(v))(b => if (within(b) == 0.0) 0.0 else weightInto(v, b, bub, g, s) / within(b))
    }
    Assignments(group, bubbleOf)
  }

  /** Complete linkage over `clusters`, the distance of points a and b
    * being `d(a * stride + b)`; `roots` are the clusters' current node ids
    * and `merge(a, b)` records one merge of two nodes, in non-decreasing
    * distance order, and returns the new node's id. Returns the root node.
    */
  private def completeLinkage(clusters: Array[Array[Int]], roots: Array[Int], d: Array[Double], stride: Int)
                             (merge: (Int, Int) => Int): Int = {
    val k = clusters.length
    val cd = Linkage.clusterDistances(clusters, d, stride)
    val node = roots ++ new Array[Int](k - 1)
    for ((mm, t) <- Linkage.agglomerate(k, cd, clusters.map(_.length), Linkage.Complete).zipWithIndex)
      node(k + t) = merge(node(mm.a), node(mm.b))
    node.last
  }

  /** Plan one group of m members from its own data, in local ids 0..m-1:
    * `bubble(a)` is member a's bubble, `block(a * m + b)` the APSP distance
    * from a to b, read from a's row. Returns the intra- and inter-bubble
    * complete linkage as m-1 merges, merge t at (2t, 2t+1), m+t being the
    * t-th merge: the intra-bubble runs by ascending bubble id, then the
    * inter-bubble run, each in non-decreasing distance order, the order
    * the heights of §V-D follow. A pure function of small arrays, so each
    * group is one task of `dendrogram`'s fan-out.
    */
  def planGroup(bubble: Array[Int], block: Array[Double]): Array[Int] = {
    val m = bubble.length
    require(block.length == m * m, s"a group of $m needs ${m * m} distances, got ${block.length}")
    val pairs = new Array[Int](2 * (m - 1))
    var t = 0
    def link(clusters: Array[Array[Int]], roots: Array[Int]): Int =
      completeLinkage(clusters, roots, block, m) { (a, b) =>
        pairs(2 * t) = a; pairs(2 * t + 1) = b
        t += 1
        m + t - 1
      }
    // subgroups of local ids, by ascending bubble id
    val subgroups = bubble.indices.toArray.groupBy(bubble(_)).toArray.sortBy(_._1).map(_._2)
    // intra-bubble linkage per subgroup, then inter-bubble across their roots
    val subRoots = subgroups.map(sg => link(sg.map(Array(_)), sg))
    link(subgroups, subRoots)
    pairs
  }

  /** Build the DBHT dendrogram (Algorithm 4, Lines 24-33 plus the height
    * re-assignment of §V-D): complete linkage within each subgroup
    * (group x bubble), then across subgroups within a group, then across
    * groups, with heights 1/(n_b-1)..1 inside each group and
    * #converging-bubbles-in-descendants at the top level.
    *
    * The groups, in ascending group id, are planned on `exec`, one
    * `planGroup` task per group with its bubbles and APSP block (the blocks
    * are cut in parallel on the driver's pool, `exec.local`). The plans
    * go into one builder, merge t of a group of m at height 1/(m-1-t); the
    * groups then join by complete linkage over the APSP rows.
    */
  def dendrogram(n: Int, asg: Assignments, apspD: SymMatrix, exec: Exec): Dendrogram = {
    val groups = groupMembers(asg.group, asg.group.max + 1).filter(_.nonEmpty)
    // each group's m x m block, (a, b) read from row members(a)
    val tasks = exec.local.parMap(groups.length) { g =>
      val ms = groups(g); val m = ms.length
      val block = new Array[Double](m * m)
      for (a <- 0 until m; b <- 0 until m) block(a * m + b) = apspD(ms(a), ms(b))
      (ms.map(asg.bubble), block)
    }
    val plans = exec.map(tasks, 1)((planGroup _).tupled)
    val builder = new DendroBuilder(n)
    val groupRoots = groups.zip(plans).map { case (members, pairs) =>
      val m = members.length
      val node = members ++ new Array[Int](m - 1) // local -> global id
      for (t <- 0 until m - 1)
        node(m + t) = builder.merge(node(pairs(2 * t)), node(pairs(2 * t + 1)), 1.0 / (m - 1 - t))
      node.last
    }
    // top level: complete linkage across groups, heights = number of
    // converging bubbles (groups) among descendants
    val groupsUnder = new Array[Int](2 * n - 1)
    groupRoots.foreach(groupsUnder(_) = 1)
    completeLinkage(groups, groupRoots, apspD.data, apspD.n) { (a, b) =>
      val c = groupsUnder(a) + groupsUnder(b)
      val id = builder.merge(a, b, c.toDouble)
      groupsUnder(id) = c
      id
    }
    builder.build()
  }
}
