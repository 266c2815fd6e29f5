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

  /** Rows per parallel task; one block's chunk of series (32 x 512
    * doubles, 128 KiB) stays in L2 while the other rows stream past it.
    */
  private final val RowBlock = 32
  /** Series positions per pass over a block (4 KiB of each row). */
  private final val KChunk = 512

  /** Number of `RowBlock`-row blocks of an n-row matrix. */
  def numBlocks(n: Int): Int = (n + RowBlock - 1) / RowBlock

  /** Rows i0 until i1 of block b of an n-row matrix. */
  def blockRows(n: Int, b: Int): (Int, Int) = (b * RowBlock, math.min(n, (b + 1) * RowBlock))

  /** Full Pearson correlation matrix of the given series (rows = objects).
    * Diagonal is 1. One task per block of `RowBlock` rows on `exec`, with
    * the z-scored series shared: each block runs `upperBlock`, then
    * `mirrorBlock` on the output.
    */
  def pearson(rows: Array[Array[Double]], exec: Exec): SymMatrix = {
    val z = zscore(rows)
    val n = z.length
    val m = SymMatrix.zeros(n)
    exec.share(z) { zs =>
      exec.fillRows(m.data, n, numBlocks(n))(blockRows(n, _))(
        (b, a, off) => upperBlock(zs(), b, a, off))(mirrorBlock(m.data, n, _))
    }
    m
  }

  /** Writes the upper-triangle cells (i, j), j > i, of block b's rows i
    * of the correlation matrix of the z-scored rows `z` (n = z.length),
    * storing cell (i, j) at `a(i*n + j - off)`. Those cells of `a` must
    * hold 0.0 on entry. Blocks write disjoint cells.
    *
    * Each entry is the dot product of two z-scored rows, summed into one
    * accumulator from 0.0 in position order with plain multiply and add
    * (no FMA, no split sums), so every value is bit-identical to the
    * one-pair-at-a-time loop. The speed comes from computing a 2 x 4 tile
    * of pairs per step (8 independent sums, 6 loads) and walking the
    * series in `KChunk` chunks. The block keeps its partial sums in its
    * output cells between chunks (storing and reloading a double is exact).
    */
  def upperBlock(z: Array[Array[Double]], b: Int, a: Array[Double], off: Int): Unit = {
    val n   = z.length
    val len = if (n == 0) 0 else z(0).length
    val (i0, i1) = blockRows(n, b)
    var k0 = 0
    while (k0 < len) {
      val k1 = math.min(len, k0 + KChunk)
      // pairs within the block: rows i, i+1 against the rows after them
      // (an odd last row has none)
      var i = i0
      while (i + 1 < i1) {
        dot(z, a, n, off, i, i + 1, k0, k1)
        var j = i + 2
        while (j + 4 <= i1) { tile(z, a, n, off, i, j, k0, k1); j += 4 }
        while (j < i1) { dot(z, a, n, off, i, j, k0, k1); dot(z, a, n, off, i + 1, j, k0, k1); j += 1 }
        i += 2
      }
      // the block against every later row: each 4-row tile of later
      // rows stays in L1 while the block's row pairs pass over it. A
      // block with later rows has RowBlock rows, an even number.
      var j = i1
      while (j + 4 <= n) {
        i = i0
        while (i < i1) { tile(z, a, n, off, i, j, k0, k1); i += 2 }
        j += 4
      }
      i = i0
      while (i < i1) { var c = j; while (c < n) { dot(z, a, n, off, i, c, k0, k1); c += 1 }; i += 1 }
      k0 = k1
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

  /** Adds positions k0 until k1 of the pairs (i..i+1) x (j..j+3) to their
    * cells (i, j..j+3) and (i+1, j..j+3), stored at `a(i*n + j - off)`,
    * one accumulator per pair.
    */
  private def tile(z: Array[Array[Double]], a: Array[Double], n: Int, off: Int, i: Int, j: Int,
                   k0: Int, k1: Int): Unit = {
    val x0 = z(i); val x1 = z(i + 1)
    val y0 = z(j); val y1 = z(j + 1); val y2 = z(j + 2); val y3 = z(j + 3)
    val r0 = i * n + j - off
    val r1 = r0 + n
    var s00 = a(r0); var s01 = a(r0 + 1); var s02 = a(r0 + 2); var s03 = a(r0 + 3)
    var s10 = a(r1); var s11 = a(r1 + 1); var s12 = a(r1 + 2); var s13 = a(r1 + 3)
    var k = k0
    while (k < k1) {
      val u0 = x0(k); val u1 = x1(k)
      val v0 = y0(k); val v1 = y1(k); val v2 = y2(k); val v3 = y3(k)
      s00 += u0 * v0; s01 += u0 * v1; s02 += u0 * v2; s03 += u0 * v3
      s10 += u1 * v0; s11 += u1 * v1; s12 += u1 * v2; s13 += u1 * v3
      k += 1
    }
    a(r0) = s00; a(r0 + 1) = s01; a(r0 + 2) = s02; a(r0 + 3) = s03
    a(r1) = s10; a(r1 + 1) = s11; a(r1 + 2) = s12; a(r1 + 3) = s13
  }

  /** Adds positions k0 until k1 of the pair (i, j) to its cell at `a(i*n + j - off)`. */
  private def dot(z: Array[Array[Double]], a: Array[Double], n: Int, off: Int, i: Int, j: Int,
                  k0: Int, k1: Int): Unit = {
    val x = z(i); val y = z(j)
    val r = i * n + j - off
    var s = a(r)
    var k = k0
    while (k < k1) { s += x(k) * y(k); k += 1 }
    a(r) = s
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
