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
    rows.indices.foreach { i => val v = violation(rows, i, len); require(v == null, v) }
    rows.map { r =>
      val mean = rowMean(r)
      val norm = rowNorm(r, mean)
      val z    = new Array[Double](r.length)
      if (norm != 0.0) { var k = 0; while (k < r.length) { z(k) = (r(k) - mean) / norm; k += 1 } }
      z
    }
  }

  /** Null if row i meets `zscore`'s contract for rows of length `len`,
    * else the reason it does not.
    */
  private def violation(rows: Array[Array[Double]], i: Int, len: Int): String = {
    val r = rows(i)
    if (r.length != len) s"row $i has length ${r.length} but row 0 has length $len"
    else if (len < 2) s"row $i has length $len: a correlation needs at least 2 values"
    else {
      var k = 0
      while (k < len && java.lang.Double.isFinite(r(k))) k += 1
      if (k < len) s"row $i has the non-finite value ${r(k)} at position $k" else null
    }
  }

  /** The sum of r from 0.0 in index order, divided by its length. */
  private def rowMean(r: Array[Double]): Double = {
    var s = 0.0
    var k = 0
    while (k < r.length) { s += r(k); k += 1 }
    s / r.length
  }

  /** The L2 norm of r's deviations from `mean`; 0.0 for a constant row. */
  private def rowNorm(r: Array[Double], mean: Double): Double = {
    var ss = 0.0
    var k = 0
    while (k < r.length) { val d = r(k) - mean; ss += d * d; k += 1 }
    math.sqrt(ss)
  }

  /** The z-scores of `rows`, transposed: `zt(k)(i)` = `zscore(rows)(i)(k)`,
    * bit for bit. One task per block of `RowBlock` rows on `exec.local`
    * checks its rows, takes their means and norms, and writes their
    * z-scores into `zt` one position at a time. A violation of `zscore`'s
    * contract throws the message `zscore` gives, for the lowest offending
    * row, at any thread count.
    */
  private[core] def zscoreTransposed(rows: Array[Array[Double]], exec: Exec): Array[Array[Double]] = {
    val n   = rows.length
    val len = if (n == 0) 0 else rows(0).length
    val zt  = Array.ofDim[Double](len, n)
    val bad = new Array[String](numBlocks(n))
    exec.local.parFor(numBlocks(n)) { b =>
      val (i0, i1) = blockRows(n, b)
      var i = i0
      while (i < i1 && bad(b) == null) { bad(b) = violation(rows, i, len); i += 1 }
      if (bad(b) == null) {
        val mean = new Array[Double](i1 - i0)
        val norm = new Array[Double](i1 - i0)
        i = i0
        while (i < i1) { mean(i - i0) = rowMean(rows(i)); norm(i - i0) = rowNorm(rows(i), mean(i - i0)); i += 1 }
        var k = 0
        while (k < len) {
          val y = zt(k)
          i = i0
          while (i < i1) {
            if (norm(i - i0) != 0.0) y(i) = (rows(i)(k) - mean(i - i0)) / norm(i - i0)
            i += 1
          }
          k += 1
        }
      }
    }
    bad.find(_ != null).foreach(v => require(false, v))
    zt
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
    * Diagonal is 1. The z-scored series are written transposed, to
    * `zt(k)(i)` = position k of row i, in parallel on `exec.local`
    * (`zscoreTransposed`), and shared; one task per block of `RowBlock`
    * rows on `exec` runs `upperBlock`, then `mirrorBlock` on the output.
    */
  def pearson(rows: Array[Array[Double]], exec: Exec): SymMatrix = {
    val zt  = zscoreTransposed(rows, exec)
    val n   = rows.length
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
    * the block's rows pass over the panel two at a time (`addPair`).
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
        while (i < i1) { addPair(zt, acc, i - i0, i, i1, math.max(j0, i + 1), j1, k0, k1); i += 2 }
        k0 = k1
      }
      j0 = j1
    }
    var i = i0
    while (i < i1) { System.arraycopy(acc(i - i0), i + 1, a, i * n + i + 1 - off, n - i - 1); i += 1 }
  }

  /** Adds `z_i(k) * z_j(k)` for k = k0 until k1, in order, to `acc(r + i - ia)(j)`
    * for the rows i = ia, ia+1 and the columns j = js until j1. If ia+1 is
    * i1, row ia is repeated into the spare accumulator row r+1 (`RowBlock`
    * is even, so it exists).
    *
    * Each pass of the loop over j takes two positions, k and k+1, for the
    * two rows, and every array in it is indexed by j alone: that is what
    * lets C2 vectorise it. An offset on any index (`y(c + j)`) stops it.
    * Of the loop shapes tried (DESIGN.md), two rows by two positions was
    * the fastest on long series; four rows by two positions, or two by
    * four, ran at half the speed of four rows by one position.
    *
    * Each step is a separate multiply and add, the position k before k+1
    * (Java never fuses them, and vector lanes round per lane), so every
    * value is bit-identical to the one-pair-at-a-time loop. An odd chunk
    * ends with one position alone.
    */
  private def addPair(zt: Array[Array[Double]], acc: Array[Array[Double]], r: Int, ia: Int, i1: Int,
                      js: Int, j1: Int, k0: Int, k1: Int): Unit = {
    val ib = math.min(ia + 1, i1 - 1)
    val a0 = acc(r); val a1 = acc(r + 1)
    var k = k0
    while (k + 1 < k1) {
      val y = zt(k); val yb = zt(k + 1)
      val x0 = y(ia); val x1 = y(ib); val z0 = yb(ia); val z1 = yb(ib)
      var j = js
      while (j < j1) {
        val v = y(j); val w = yb(j)
        a0(j) = a0(j) + x0 * v + z0 * w
        a1(j) = a1(j) + x1 * v + z1 * w
        j += 1
      }
      k += 2
    }
    if (k < k1) {
      val y = zt(k)
      val x0 = y(ia); val x1 = y(ib)
      var j = js
      while (j < j1) { val v = y(j); a0(j) += x0 * v; a1(j) += x1 * v; j += 1 }
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
