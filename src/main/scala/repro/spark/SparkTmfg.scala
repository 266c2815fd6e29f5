package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{BubbleTree, SymMatrix, Tmfg, TmfgResult, WGraph}
import scala.collection.mutable.ArrayBuffer

/** Distributed batched TMFG construction (paper Algorithm 1 as a
  * round-based dataflow job).
  *
  * Per round, the O(faces x remaining-vertices) GAINS scan — the dominant
  * work — fans out over an RDD of the current faces with the similarity
  * matrix shipped once as a broadcast; the driver holds the O(n) graph /
  * face / bubble-tree state, selects the top-PREFIX conflict-free
  * vertex-face pairs with the kernel's `Tmfg.selectBatch`, and applies
  * the insertions (exactly the role the shared O(n) state plays in the
  * paper's shared-memory algorithm).
  *
  * Produces bit-identical output to `repro.core.Tmfg.build`: a face's
  * cached best vertex in the incremental kernel is always the argmax over
  * the current remaining set, so recomputing gains from scratch per round
  * selects the same pairs.
  */
object SparkTmfg {

  def build(spark: SparkSession, s: SymMatrix, prefix: Int): TmfgResult = {
    val n = s.n
    require(n >= 4, s"TMFG needs at least 4 vertices, got $n")
    require(prefix >= 1, s"prefix must be >= 1, got $prefix")
    val sc = spark.sparkContext
    val bS = sc.broadcast(s.data)

    try {
      val rowSums = (0 until n).map(i => s.rowSum(i))
      val seed = (0 until n).sortBy(i => (-rowSums(i), i)).take(4).toArray
      val remaining = collection.mutable.TreeSet.from((0 until n).filterNot(seed.contains))

      val edges = new ArrayBuffer[(Int, Int)](3 * n)
      for (i <- 0 until 4; j <- i + 1 until 4) edges += ((seed(i), seed(j)))

      // driver-held face state: (vertices, owning bubble, alive)
      val faceVerts  = new ArrayBuffer[Array[Int]]()
      val faceBubble = new ArrayBuffer[Int]()
      val faceAlive  = new ArrayBuffer[Boolean]()
      def addFace(tri: Array[Int], bubble: Int): Int = {
        faceVerts += tri; faceBubble += bubble; faceAlive += true
        faceVerts.length - 1
      }

      val tree = new BubbleTree(n)
      val b0 = tree.addBubble(seed.clone())
      tree.root = b0
      val f0 = addFace(Array(seed(0), seed(1), seed(2)), b0)
      addFace(Array(seed(0), seed(1), seed(3)), b0)
      addFace(Array(seed(0), seed(2), seed(3)), b0)
      addFace(Array(seed(1), seed(2), seed(3)), b0)
      var outerFaceId = f0

      val insertionOrder = new ArrayBuffer[Int](n)
      insertionOrder ++= seed

      var rounds = 0
      while (remaining.nonEmpty) {
        rounds += 1
        val alive = faceVerts.indices.filter(faceAlive).toArray
        val remArr = remaining.toArray
        val bRem = sc.broadcast(remArr)
        // distributed GAINS scan: best remaining vertex per alive face
        val gains: Array[(Int, Int, Double)] = // (faceId, bestV, gain)
          sc.parallelize(alive.map(f => (f, faceVerts(f))).toSeq, math.min(64, alive.length))
            .map { case (f, tri) =>
              val sd  = bS.value
              val rem = bRem.value
              val r0 = tri(0) * n; val r1 = tri(1) * n; val r2 = tri(2) * n
              var bv = -1
              var bg = Double.NegativeInfinity
              var i = 0
              while (i < rem.length) {
                val v = rem(i)
                val g = sd(r0 + v) + sd(r1 + v) + sd(r2 + v)
                if (g > bg || (g == bg && v < bv)) { bg = g; bv = v }
                i += 1
              }
              (f, bv, bg)
            }
            .collect()
        bRem.destroy()

        // select top-PREFIX pairs, conflict-free on vertices
        val bestV    = new Array[Int](faceVerts.length)
        val bestGain = new Array[Double](faceVerts.length)
        for ((f, v, g) <- gains) { bestV(f) = v; bestGain(f) = g }
        val picks = Tmfg.selectBatch(alive, alive.length, bestV, bestGain, prefix)

        for (f <- picks) {
          val v = bestV(f)
          val tri = faceVerts(f)
          remaining -= v
          insertionOrder += v
          edges += ((v, tri(0))); edges += ((v, tri(1))); edges += ((v, tri(2)))
          val bStar = tree.addBubble(Array(tri(0), tri(1), tri(2), v))
          val wasOuter = f == outerFaceId
          if (wasOuter) {
            tree.link(bStar, tree.root, tri.clone())
            tree.root = bStar
          } else {
            tree.link(faceBubble(f), bStar, tri.clone())
          }
          faceAlive(f) = false
          val nf1 = addFace(Array(v, tri(0), tri(1)), bStar)
          addFace(Array(v, tri(1), tri(2)), bStar)
          addFace(Array(v, tri(0), tri(2)), bStar)
          if (wasOuter) outerFaceId = nf1
        }
      }

      TmfgResult(WGraph.fromEdges(n, edges), tree, rounds, insertionOrder.toArray)
    } finally bS.destroy()
  }
}
