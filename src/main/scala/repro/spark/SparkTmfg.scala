package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{Par, SymMatrix, Tmfg, TmfgResult}

/** Distributed batched TMFG construction (paper Algorithm 1 as a
  * round-based dataflow job).
  *
  * Runs the kernel's round engine, `Tmfg.grow`: the driver holds the O(n)
  * graph / face / bubble-tree state and applies each round's batch
  * (exactly the role the shared O(n) state plays in the paper's
  * shared-memory algorithm), including the faces' candidate lists. Only
  * the GAINS rescans fan out: each round's faces to rescan become an RDD,
  * scanned with `Tmfg.candidates` against the similarity matrix, which is
  * shipped once as a broadcast.
  *
  * Produces bit-identical output to `repro.core.Tmfg.build`: both run the
  * same rounds and rescan the same faces with the same kernel.
  */
object SparkTmfg {

  def build(spark: SparkSession, s: SymMatrix, prefix: Int): TmfgResult = {
    val n = s.n
    val sc = spark.sparkContext
    val bS = sc.broadcast(s.data)
    try Par.default { par =>
      Tmfg.grow(s, prefix, par) { (tris, rem, remCount) =>
        val bRem = sc.broadcast(rem.take(remCount))
        try sc.parallelize(tris.grouped(3).toSeq, math.min(64, tris.length / 3))
              .map(t => Tmfg.candidates(bS.value, n, t(0), t(1), t(2), bRem.value, bRem.value.length))
              .collect()
        finally bRem.destroy()
      }
    } finally bS.destroy()
  }
}
