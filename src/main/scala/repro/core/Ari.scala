package repro.core

/** Clustering agreement for the paper's evaluation (§VII): the Adjusted
  * Rand Index of Hubert & Arabie, which the paper reports in all plots.
  */
object Ari {

  /** Contingency table between two labelings; labels may be arbitrary ints. */
  def contingency(a: Array[Int], b: Array[Int]): (Array[Array[Long]], Array[Long], Array[Long]) = {
    require(a.length == b.length, s"label arrays differ: ${a.length} vs ${b.length}")
    val aIds = a.distinct.sorted
    val bIds = b.distinct.sorted
    val aIdx = aIds.zipWithIndex.toMap
    val bIdx = bIds.zipWithIndex.toMap
    val table = Array.ofDim[Long](aIds.length, bIds.length)
    for (i <- a.indices) table(aIdx(a(i)))(bIdx(b(i))) += 1
    val rows = table.map(_.sum)
    val cols = bIds.indices.map(j => table.map(_(j)).sum).toArray
    (table, rows, cols)
  }

  @inline private def choose2(x: Long): Double = x.toDouble * (x - 1) / 2.0

  /** Adjusted Rand Index: 1 for identical partitions, ~0 expected for
    * random assignments.
    */
  def ari(a: Array[Int], b: Array[Int]): Double = {
    val (table, rows, cols) = contingency(a, b)
    val n = a.length.toLong
    val sumIj = table.flatten.map(choose2).sum
    val sumI  = rows.map(choose2).sum
    val sumJ  = cols.map(choose2).sum
    val nC2   = choose2(n)
    if (nC2 == 0) return 1.0
    val expected = sumI * sumJ / nC2
    val maxIdx   = (sumI + sumJ) / 2.0
    if (maxIdx == expected) 1.0 // both partitions trivial (all-singletons or single cluster)
    else (sumIj - expected) / (maxIdx - expected)
  }
}
