package repro.core

/** Dense symmetric n x n matrix over doubles, stored as a flat row-major
  * array (full square, not triangular — the O(n^2) memory is the point of
  * the paper's input, and full rows give cache-friendly scans in the gain
  * computations).
  */
final class SymMatrix private (val n: Int, val data: Array[Double]) {

  @inline def apply(i: Int, j: Int): Double = data(i * n + j)

  /** Symmetric update: sets both (i,j) and (j,i). */
  @inline def update(i: Int, j: Int, v: Double): Unit = {
    data(i * n + j) = v
    data(j * n + i) = v
  }

  /** Sum of row i (the weighted degree against every other object). */
  def rowSum(i: Int): Double = {
    var s = 0.0
    var j = 0
    val off = i * n
    while (j < n) { s += data(off + j); j += 1 }
    s
  }
}

object SymMatrix {
  /** Largest n whose n*n entries fit in one JVM array (n = 46340). */
  val MaxN: Int = math.sqrt(Int.MaxValue - 8.0).toInt

  /** Rejects an n whose n*n entries do not fit in one JVM array. */
  def checkSize(n: Int): Unit =
    require(n >= 0 && n.toLong * n <= Int.MaxValue - 8,
      s"n = $n is outside 0..$MaxN: an n x n matrix of n*n = ${n.toLong * n} entries does not fit in one array")

  def zeros(n: Int): SymMatrix = {
    checkSize(n)
    new SymMatrix(n, new Array[Double](n * n))
  }
}
