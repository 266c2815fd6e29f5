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

  /** Rows per parallel task; each task accumulates its rows' cells in
    * `RowBlock` rows of its own.
    */
  private final val RowBlock = 32
  /** Columns per panel: one chunk of a panel (`KChunk` x `Panel` doubles,
    * 256 KiB) stays in L2 while the block's row groups pass over it.
    */
  private final val Panel = 256
  /** Series positions per pass over a panel. */
  private final val KChunk = 128

  /** Number of `RowBlock`-row blocks of an n-row matrix. */
  def numBlocks(n: Int): Int = (n + RowBlock - 1) / RowBlock

  /** Rows i0 until i1 of block b of an n-row matrix. */
  def blockRows(n: Int, b: Int): (Int, Int) = (b * RowBlock, math.min(n, (b + 1) * RowBlock))

  /** Full Pearson correlation matrix of the given series (rows = objects).
    * Diagonal is 1. The z-scored series are transposed once, to
    * `zt(k)(i)` = position k of row i, and shared; one task per block of
    * `RowBlock` rows on `exec` runs `upperBlock`, then `mirrorBlock` on
    * the output.
    */
  def pearson(rows: Array[Array[Double]], exec: Exec): SymMatrix = {
    val z   = zscore(rows)
    val n   = z.length
    val len = if (n == 0) 0 else z(0).length
    val zt  = Array.ofDim[Double](len, n)
    var i = 0
    while (i < n) { val r = z(i); var k = 0; while (k < len) { zt(k)(i) = r(k); k += 1 }; i += 1 }
    val m   = SymMatrix.zeros(n)
    exec.share(zt) { zts =>
      exec.fillRows(m.data, n, numBlocks(n))(blockRows(n, _))(
        (b, a, off) => upperBlock(zts(), n, b, a, off))(mirrorBlock(m.data, n, _))
    }
    m
  }

  /** Writes the upper-triangle cells (i, j), j > i, of block b's rows i
    * of the n x n correlation matrix of the transposed z-scored series
    * `zt` (`zt(k)(i)` = position k of row i), storing cell (i, j) at
    * `a(i*n + j - off)`. Blocks write disjoint cells.
    *
    * The block sums into `RowBlock` accumulator rows of its own, one per
    * row, indexed by the column j, and copies them out at the end. For
    * each panel of `Panel` columns and each chunk of `KChunk` positions,
    * the block's rows pass over the panel four at a time (`addGroup`).
    * Each cell is one accumulator that starts at 0.0 (a cell belongs to
    * one panel) and adds `z_i(k) * z_j(k)` for k = 0 until L in order.
    */
  def upperBlock(zt: Array[Array[Double]], n: Int, b: Int, a: Array[Double], off: Int): Unit = {
    val (i0, i1) = blockRows(n, b)
    val acc = Array.ofDim[Double](RowBlock, n)
    var j0 = i0 + 1
    while (j0 < n) {
      val j1 = math.min(n, j0 + Panel)
      var k0 = 0
      while (k0 < zt.length) {
        val k1 = math.min(zt.length, k0 + KChunk)
        var i = i0
        while (i < i1) { addGroup(zt, acc, i - i0, i, i1, math.max(j0, i + 1), j1, k0, k1); i += 4 }
        k0 = k1
      }
      j0 = j1
    }
    var i = i0
    while (i < i1) { System.arraycopy(acc(i - i0), i + 1, a, i * n + i + 1 - off, n - i - 1); i += 1 }
  }

  /** Adds `z_i(k) * z_j(k)` for k = k0 until k1, in order, to `acc(r + i - ia)(j)`
    * for the rows i = ia..ia+3 and the columns j = js until j1. Rows at or
    * past i1 repeat row i1 - 1 into spare accumulator rows.
    *
    * There is one loop over j per position k, and every array in it is
    * indexed by j alone: that is what lets C2 vectorise it. An offset on
    * any index (`y(c + j)`), or a larger body (eight rows, or two
    * positions per loop), stops it. Each step is a separate multiply and
    * add (Java never fuses them, and vector lanes round per lane), so every
    * value is bit-identical to the one-pair-at-a-time loop.
    */
  private def addGroup(zt: Array[Array[Double]], acc: Array[Array[Double]], r: Int, ia: Int, i1: Int,
                       js: Int, j1: Int, k0: Int, k1: Int): Unit = {
    val ib = math.min(ia + 1, i1 - 1); val ic = math.min(ia + 2, i1 - 1); val id = math.min(ia + 3, i1 - 1)
    val a0 = acc(r); val a1 = acc(r + 1); val a2 = acc(r + 2); val a3 = acc(r + 3)
    var k = k0
    while (k < k1) {
      val y = zt(k)
      val x0 = y(ia); val x1 = y(ib); val x2 = y(ic); val x3 = y(id)
      var j = js
      while (j < j1) {
        val v = y(j)
        a0(j) += x0 * v; a1(j) += x1 * v; a2(j) += x2 * v; a3(j) += x3 * v
        j += 1
      }
      k += 1
    }
  }

  /** Writes the unit diagonal and mirrors the upper-triangle cells of
    * block b's rows into the lower triangle of the n x n matrix `a`. The
    * mirror of block b is columns i0 until i1 of the rows below i0; it is
    * written one row segment at a time, reading the block's rows down
    * column j.
    */
  def mirrorBlock(a: Array[Double], n: Int, b: Int): Unit = {
    val (i0, i1) = blockRows(n, b)
    var i = i0
    while (i < i1) { a(i * n + i) = 1.0; i += 1 }
    var j = i0 + 1
    while (j < n) {
      val r = j * n
      val end = math.min(i1, j)
      i = i0
      while (i < end) { a(r + i) = a(i * n + j); i += 1 }
      j += 1
    }
  }

  /** Dissimilarity d = sqrt(2(1-p)) from a correlation (similarity)
    * matrix, on one thread.
    */
  def dissimilarity(s: SymMatrix): SymMatrix = Par.withThreads(1)(dissimilarity(s, _))

  /** Dissimilarity d = sqrt(2(1-p)) from a correlation (similarity)
    * matrix, parallel over rows via `par`. Each cell is computed on its
    * own, so the result does not depend on the thread count.
    */
  def dissimilarity(s: SymMatrix, par: Par): SymMatrix = {
    val n = s.n
    val d = SymMatrix.zeros(n)
    par.parFor(n) { i =>
      val r = i * n
      var j = 0
      while (j < n) {
        if (i != j) d.data(r + j) = math.sqrt(math.max(0.0, 2.0 * (1.0 - s.data(r + j))))
        j += 1
      }
    }
    d
  }
}
