package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils

class SymMatrixSpec extends AnyFunSuite {

  test("update sets both triangles") {
    val m = SymMatrix.zeros(4)
    m.update(1, 3, 2.5)
    assert(m(1, 3) == 2.5 && m(3, 1) == 2.5)
  }

  test("rowSum sums a full row") {
    val m = SymMatrix.zeros(3)
    m.update(0, 1, 1.0); m.update(0, 2, 2.0); m.update(0, 0, 5.0)
    assert(m.rowSum(0) == 8.0)
    assert(m.rowSum(1) == 1.0)
  }

  test("an n whose n*n entries overflow one array is rejected before allocating") {
    for (n <- Seq(SymMatrix.MaxN + 1, 46341, 65536, Int.MaxValue, -1)) {
      val e = intercept[IllegalArgumentException](SymMatrix.zeros(n))
      assert(e.getMessage.contains(s"n = $n"))
    }
    SymMatrix.checkSize(SymMatrix.MaxN) // the largest n that fits passes
    intercept[IllegalArgumentException](SymMatrix.checkSize(SymMatrix.MaxN + 1))
  }

  test("copy is independent of the original") {
    val m = TestUtils.randomSim(5, 1)
    val c = TestUtils.copy(m)
    c.update(0, 1, 99.0)
    assert(m(0, 1) != 99.0)
  }

  test("randomSim generator is symmetric with unit diagonal") {
    val m = TestUtils.randomSim(10, 7)
    for (i <- 0 until 10) assert(m(i, i) == 1.0)
    for (i <- 0 until 10; j <- 0 until 10) assert(m(i, j) == m(j, i))
  }
}
