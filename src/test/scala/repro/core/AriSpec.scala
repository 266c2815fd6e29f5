package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class AriSpec extends AnyFunSuite {

  test("ARI of identical labelings is 1") {
    val a = Array(0, 0, 1, 1, 2, 2)
    assert(Ari.ari(a, a) == 1.0)
  }

  test("ARI is invariant to label permutation") {
    val a = Array(0, 0, 1, 1, 2, 2)
    val b = Array(2, 2, 0, 0, 1, 1)
    assert(Ari.ari(a, b) == 1.0)
  }

  test("ARI is symmetric") {
    val rng = new Random(1)
    val a = Array.fill(50)(rng.nextInt(4))
    val b = Array.fill(50)(rng.nextInt(3))
    assert(math.abs(Ari.ari(a, b) - Ari.ari(b, a)) < 1e-12)
  }

  test("ARI of random labelings is near 0") {
    val rng = new Random(2)
    val scores = (1 to 20).map { _ =>
      val a = Array.fill(500)(rng.nextInt(5))
      val b = Array.fill(500)(rng.nextInt(5))
      Ari.ari(a, b)
    }
    assert(math.abs(scores.sum / scores.length) < 0.02)
  }

  test("ARI known value (sklearn reference)") {
    // sklearn.metrics.adjusted_rand_score([0,0,1,1],[0,0,1,2]) == 0.5714285714285715
    val a = Array(0, 0, 1, 1)
    val b = Array(0, 0, 1, 2)
    assert(math.abs(Ari.ari(a, b) - 0.5714285714285715) < 1e-12)
  }

  test("ARI known value 2 (sklearn reference)") {
    // sklearn.metrics.adjusted_rand_score([0,0,1,2],[0,0,1,1]) == 0.5714285714285715
    val a = Array(0, 0, 1, 2)
    val b = Array(0, 0, 1, 1)
    assert(math.abs(Ari.ari(a, b) - 0.5714285714285715) < 1e-12)
  }

  test("ARI can be negative for anti-correlated partitions") {
    val a = Array(0, 0, 1, 1)
    val b = Array(0, 1, 0, 1)
    assert(Ari.ari(a, b) < 0.0)
  }

  test("ARI handles the all-one-cluster edge case") {
    val a = Array(0, 0, 0, 0)
    assert(Ari.ari(a, a) == 1.0)
  }

  test("ARI of all-singletons vs itself is 1") {
    val a = Array(0, 1, 2, 3)
    assert(Ari.ari(a, a) == 1.0)
  }

  test("contingency table sums match n") {
    val a = Array(0, 0, 1, 1, 2)
    val b = Array(1, 1, 0, 0, 0)
    val (table, rows, cols) = Ari.contingency(a, b)
    assert(table.flatten.sum == 5 && rows.sum == 5 && cols.sum == 5)
  }

  test("mismatched lengths are rejected") {
    intercept[IllegalArgumentException](Ari.ari(Array(0, 1), Array(0)))
  }

  test("ARI ranks a noisy labeling above a random one") {
    val rng = new Random(5)
    val truth = Array.tabulate(200)(_ % 4)
    val noisy = truth.map(l => if (rng.nextDouble() < 0.2) rng.nextInt(4) else l)
    val rand  = Array.fill(200)(rng.nextInt(4))
    assert(Ari.ari(truth, noisy) > Ari.ari(truth, rand))
  }
}
