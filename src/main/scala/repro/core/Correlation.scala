package repro.core

/** Pearson correlation similarity and the paper's dissimilarity transform.
  *
  * The paper (§VII, Data sets) uses Pearson correlation p as the
  * similarity measure and d = sqrt(2(1-p)) as the dissimilarity measure
  * (Mantegna's correlation distance); for z-normalized series d equals
  * the Euclidean distance of the normalized vectors.
  */
object Correlation {

  /** Z-score each row to zero mean / unit L2 norm (of deviations).
    * A constant row z-scores to the zero vector (correlation 0 with
    * everything, matching the convention of treating it as noise).
    *
    * Every correlation and k-means path starts here, so this is where the
    * input contract is checked: all rows have the same length, at least
    * 2, and every value is finite. A violation throws an
    * IllegalArgumentException naming the first offending row.
    */
  def zscore(rows: Array[Array[Double]]): Array[Array[Double]] = {
    val len = if (rows.isEmpty) 0 else rows(0).length
    rows.indices.foreach { i =>
      val r = rows(i)
      require(r.length == len, s"row $i has length ${r.length} but row 0 has length $len")
      require(len >= 2, s"row $i has length $len: a correlation needs at least 2 values")
      val bad = r.indexWhere(x => !java.lang.Double.isFinite(x))
      require(bad < 0, s"row $i has the non-finite value ${r(bad)} at position $bad")
    }
    rows.map { r =>
      val n    = r.length
      val mean = r.sum / n
      var ss   = 0.0
      var i = 0
      while (i < n) { val d = r(i) - mean; ss += d * d; i += 1 }
      val norm = math.sqrt(ss)
      if (norm == 0.0) new Array[Double](n)
      else r.map(x => (x - mean) / norm)
    }
  }

  /** Full Pearson correlation matrix of the given series (rows = objects).
    * Diagonal is 1. Parallel over row pairs via `par`.
    */
  def pearson(rows: Array[Array[Double]], par: Par): SymMatrix = {
    val n = rows.length
    val z = zscore(rows)
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

  /** Dissimilarity d = sqrt(2(1-p)) from a correlation (similarity) matrix. */
  def dissimilarity(s: SymMatrix): SymMatrix = {
    val d = SymMatrix.zeros(s.n)
    var i = 0
    while (i < s.n) {
      var j = 0
      while (j < s.n) {
        if (i != j) d.data(i * s.n + j) = math.sqrt(math.max(0.0, 2.0 * (1.0 - s(i, j))))
        j += 1
      }
      i += 1
    }
    d
  }
}
