package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CorrelationSpec extends AnyFunSuite {

  private def naivePearson(a: Array[Double], b: Array[Double]): Double = {
    val n = a.length
    val ma = a.sum / n
    val mb = b.sum / n
    var num = 0.0; var da = 0.0; var db = 0.0
    for (i <- 0 until n) {
      num += (a(i) - ma) * (b(i) - mb)
      da += (a(i) - ma) * (a(i) - ma)
      db += (b(i) - mb) * (b(i) - mb)
    }
    num / math.sqrt(da * db)
  }

  test("zscore gives zero mean and unit norm") {
    val rng = new Random(1)
    val rows = Array.fill(5)(Array.fill(50)(rng.nextGaussian() * 3 + 2))
    for (z <- Correlation.zscore(rows)) {
      assert(math.abs(z.sum) < 1e-9)
      assert(math.abs(z.map(x => x * x).sum - 1.0) < 1e-9)
    }
  }

  test("zscore of a constant row is the zero vector") {
    val z = Correlation.zscore(Array(Array(5.0, 5.0, 5.0)))
    assert(z(0).forall(_ == 0.0))
  }

  private def rejected(rows: Array[Array[Double]], threads: Int = 1): String =
    intercept[IllegalArgumentException](Par.withThreads(threads)(par => Correlation.pearson(rows, par))).getMessage

  test("ragged rows are rejected, naming the row") {
    val msg = rejected(Array(Array(1.0, 2.0, 3.0), Array(1.0, 2.0, 3.0), Array(1.0, 2.0, 3.0, 4.0, 5.0)))
    assert(msg.contains("row 2") && msg.contains("length 5"), msg)
  }

  test("non-finite values are rejected, naming the row") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val rows = Array.tabulate(4)(i => Array.tabulate(6)(t => math.sin(i + t)))
      rows(1)(4) = bad
      val msg = rejected(rows)
      assert(msg.contains("row 1") && msg.contains("position 4"), msg)
      intercept[IllegalArgumentException](Correlation.zscore(rows))
    }
  }

  test("rows with fewer than 2 points are rejected") {
    for (len <- Seq(0, 1)) {
      val msg = rejected(Array.fill(3)(Array.fill(len)(1.0)))
      assert(msg.contains("row 0") && msg.contains("at least 2"), msg)
    }
  }

  /** 64 rows of length 40 in two 32-row blocks, with the given rows spoilt by `spoil`. */
  private def spoilt(badRows: Seq[Int], spoil: Array[Double] => Array[Double]): Array[Array[Double]] = {
    val rows = Array.tabulate(64)(i => Array.tabulate(40)(t => math.sin(0.3 * i + t)))
    for (i <- badRows) rows(i) = spoil(rows(i))
    rows
  }

  private val spoils: Seq[(String, Array[Double] => Array[Double])] = Seq(
    "ragged" -> (r => r ++ Array(1.0)),
    "NaN" -> (r => r.updated(7, Double.NaN)),
    "+Inf" -> (r => r.updated(7, Double.PositiveInfinity)),
    "-Inf" -> (r => r.updated(7, Double.NegativeInfinity)))

  test("each rejection gives the same message on 4 threads as on 1") {
    for ((name, spoil) <- spoils; bad <- Seq(0, 5, 31, 32, 63)) {
      val rows = spoilt(Seq(bad), spoil)
      // a ragged row 0 makes every other row the ragged one
      val named = if (name == "ragged" && bad == 0) 1 else bad
      val msg = rejected(rows)
      assert(msg.contains(s"row $named "), s"$name at $bad: $msg")
      assert(rejected(rows, 4) == msg, s"$name at $bad")
      assert(intercept[IllegalArgumentException](Correlation.zscore(rows)).getMessage == msg, s"$name at $bad")
    }
    for (len <- Seq(0, 1)) {
      val rows = Array.fill(64)(Array.fill(len)(1.0))
      assert(rejected(rows, 4) == rejected(rows), s"len=$len")
    }
  }

  test("with bad rows in two blocks, the message names the lower row at any thread count") {
    for ((name, spoil) <- spoils; threads <- Seq(1, 2, 4)) {
      val msg = rejected(spoilt(Seq(40, 3), spoil), threads)
      assert(msg.contains("row 3 ") && !msg.contains("row 40"), s"$name threads=$threads: $msg")
    }
  }

  test("the transposed z-scores equal the transpose of zscore bit for bit") {
    val rng = new Random(6)
    for (n <- Seq(1, 31, 33, 70); len <- Seq(2, 5, 129)) {
      val rows = Array.fill(n)(Array.fill(len)(rng.nextGaussian() * 3 + 1))
      if (n >= 3) rows(n / 2) = Array.fill(len)(-4.25)                                    // constant
      if (n >= 31) rows(30) = Array.tabulate(len)(t => if (t % 3 == 0) -0.0 else 0.0)    // all ±0.0
      if (n >= 33) rows(32) = Array.fill(len)(-0.0)
      val z = Correlation.zscore(rows)
      for (threads <- Seq(1, 4)) {
        val zt = Par.withThreads(threads)(Correlation.zscoreTransposed(rows, _))
        assert(zt.length == len)
        for (k <- 0 until len; i <- 0 until n)
          assert(java.lang.Double.doubleToRawLongBits(zt(k)(i)) == java.lang.Double.doubleToRawLongBits(z(i)(k)),
            s"n=$n len=$len threads=$threads ($i, $k)")
      }
    }
  }

  test("pearson matches the naive per-pair formula") {
    val rng = new Random(2)
    val rows = Array.fill(8)(Array.fill(64)(rng.nextGaussian()))
    val m = Par.withThreads(4)(par => Correlation.pearson(rows, par))
    for (i <- 0 until 8; j <- 0 until 8; if i != j)
      assert(math.abs(m(i, j) - naivePearson(rows(i), rows(j))) < 1e-9, s"($i,$j)")
  }

  test("pearson diagonal is 1, values within [-1, 1]") {
    val rng = new Random(3)
    val rows = Array.fill(10)(Array.fill(30)(rng.nextGaussian()))
    val m = Par.withThreads(2)(par => Correlation.pearson(rows, par))
    for (i <- 0 until 10) assert(m(i, i) == 1.0)
    for (i <- 0 until 10; j <- 0 until 10) assert(m(i, j) >= -1.0 - 1e-9 && m(i, j) <= 1.0 + 1e-9)
  }

  test("perfectly correlated and anti-correlated rows") {
    val base = Array.tabulate(20)(_.toDouble)
    val rows = Array(base, base.map(_ * 2 + 1), base.map(x => -x))
    val m = Par.withThreads(1)(par => Correlation.pearson(rows, par))
    assert(math.abs(m(0, 1) - 1.0) < 1e-9)
    assert(math.abs(m(0, 2) + 1.0) < 1e-9)
  }

  test("pearson is bit-identical to the one-pair loop at every tile and chunk edge") {
    // n: partial four-row groups (15, 17), a partial block (47), one full
    // 256-column panel in block 0 (257) and a second panel (300); L: around
    // the 128-position chunk (127..129) and longer series
    val rng = new Random(5)
    for (n <- Seq(1, 2, 3, 4, 5, 7, 15, 16, 17, 33, 47, 65, 130, 257, 300);
         len <- Seq(2, 3, 127, 128, 129, 511, 512, 513, 1100)) {
      val rows = Array.fill(n)(Array.fill(len)(rng.nextGaussian()))
      if (n >= 3) rows(n / 2) = Array.fill(len)(2.5)      // constant: z-scores to zeros
      if (n >= 4) rows(n - 1) = rows(1).clone()           // duplicate of row 1
      val ref = Par.withThreads(1)(repro.TestUtils.pearsonOnePair(rows, _))
      for (threads <- Seq(1, 4)) {
        val m = Par.withThreads(threads)(par => Correlation.pearson(rows, par))
        assert(java.util.Arrays.equals(ref.data, m.data), s"n=$n len=$len threads=$threads")
        for (i <- 0 until n; j <- 0 until n)
          assert(java.lang.Double.doubleToRawLongBits(m(i, j)) ==
            java.lang.Double.doubleToRawLongBits(m(j, i)), s"($i,$j) n=$n len=$len")
        for (i <- 0 until n) assert(m(i, i) == 1.0)
      }
    }
  }

  test("pearson identical across thread counts") {
    val rng = new Random(4)
    val rows = Array.fill(20)(Array.fill(40)(rng.nextGaussian()))
    val a = Par.withThreads(1)(par => Correlation.pearson(rows, par))
    val b = Par.withThreads(8)(par => Correlation.pearson(rows, par))
    assert(a.data.sameElements(b.data))
  }

  test("dissimilarity: d = sqrt(2(1-p)), zero diagonal") {
    val s = SymMatrix.zeros(3)
    s.update(0, 0, 1); s.update(1, 1, 1); s.update(2, 2, 1)
    s.update(0, 1, 1.0); s.update(0, 2, -1.0); s.update(1, 2, 0.0)
    val d = Correlation.dissimilarity(s)
    assert(d(0, 0) == 0.0)
    assert(math.abs(d(0, 1)) < 1e-12)           // p=1  -> d=0
    assert(math.abs(d(0, 2) - 2.0) < 1e-12)     // p=-1 -> d=2
    assert(math.abs(d(1, 2) - math.sqrt(2)) < 1e-12) // p=0 -> sqrt(2)
  }

  test("dissimilarity is monotone decreasing in correlation") {
    val s = SymMatrix.zeros(4)
    for (i <- 0 until 4) s.update(i, i, 1.0)
    s.update(0, 1, 0.9); s.update(0, 2, 0.5); s.update(0, 3, -0.5)
    val d = Correlation.dissimilarity(s)
    assert(d(0, 1) < d(0, 2) && d(0, 2) < d(0, 3))
  }

  test("dissimilarity clamps tiny negative radicands from fp error") {
    val s = SymMatrix.zeros(2)
    s.update(0, 0, 1); s.update(1, 1, 1)
    s.update(0, 1, 1.0 + 1e-15)
    val d = Correlation.dissimilarity(s)
    assert(!d(0, 1).isNaN)
  }

  test("dissimilarity on 1 and 4 threads is bit-identical to the per-cell formula") {
    val rng = new Random(12)
    val rows = Array.fill(67)(Array.fill(30)(rng.nextGaussian()))
    val s = Par.withThreads(4)(par => Correlation.pearson(rows, par))
    val expected = SymMatrix.zeros(s.n)
    for (i <- 0 until s.n; j <- 0 until s.n if i != j)
      expected.data(i * s.n + j) = math.sqrt(math.max(0.0, 2.0 * (1.0 - s(i, j))))
    val bits = (m: SymMatrix) => m.data.map(java.lang.Double.doubleToRawLongBits).toSeq
    assert(bits(Correlation.dissimilarity(s)) == bits(expected))
    for (threads <- Seq(1, 4))
      assert(bits(Par.withThreads(threads)(par => Correlation.dissimilarity(s, par))) == bits(expected), s"threads=$threads")
  }
}
