package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils

class LinkageSpec extends AnyFunSuite {

  private def mergeSets(n: Int, merges: Array[Linkage.Merge]): Seq[(Set[Int], Double)] = {
    // materialize each merge as the set of leaves it unites
    val members = collection.mutable.Map[Int, Set[Int]]()
    for (i <- 0 until n) members(i) = Set(i)
    merges.zipWithIndex.map { case (m, t) =>
      val s = members(m.a) ++ members(m.b)
      members(n + t) = s
      (s, m.dist)
    }.toSeq
  }

  test("complete linkage matches naive greedy HAC (tie-free random input)") {
    for (seed <- 1L to 5L) {
      val n = 18
      val d = TestUtils.randomDist(n, seed)
      val merges = Linkage.agglomerate(n, d.data, Array.fill(n)(1), Linkage.Complete)
      val naive = TestUtils.naiveHac(n, (a, b) => d(a, b), Linkage.Complete)
      val got = mergeSets(n, merges).map { case (s, dd) => (s, math.round(dd * 1e9)) }.toSet
      val exp = naive.map { case (a, b, dd) => (a ++ b, math.round(dd * 1e9)) }.toSet
      assert(got == exp, s"seed=$seed")
    }
  }

  test("average linkage matches naive greedy HAC (tie-free random input)") {
    for (seed <- 6L to 9L) {
      val n = 15
      val d = TestUtils.randomDist(n, seed)
      val merges = Linkage.agglomerate(n, d.data, Array.fill(n)(1), Linkage.Average)
      val naive = TestUtils.naiveHac(n, (a, b) => d(a, b), Linkage.Average)
      val got = mergeSets(n, merges).map { case (s, dd) => (s, math.round(dd * 1e6)) }.toSet
      val exp = naive.map { case (a, b, dd) => (a ++ b, math.round(dd * 1e6)) }.toSet
      assert(got == exp, s"seed=$seed")
    }
  }

  test("merge distances are non-decreasing after relabeling") {
    val n = 40
    val d = TestUtils.randomDist(n, 3)
    for (method <- Seq[Linkage.Method](Linkage.Complete, Linkage.Average)) {
      val merges = Linkage.agglomerate(n, d.data, Array.fill(n)(1), method)
      assert(merges.sliding(2).forall {
        case Array(a, b) => a.dist <= b.dist
        case _           => true
      })
    }
  }

  test("merge list forms a valid binary tree over all leaves") {
    val n = 25
    val d = TestUtils.randomDist(n, 4)
    val merges = Linkage.agglomerate(n, d.data, Array.fill(n)(1), Linkage.Complete)
    assert(merges.length == n - 1)
    val used = collection.mutable.Set[Int]()
    for (m <- merges) {
      assert(used.add(m.a), s"node ${m.a} used twice as a child")
      assert(used.add(m.b), s"node ${m.b} used twice as a child")
    }
    // root (2n-2) is never a child; every other node is a child exactly once
    assert(used == (0 until 2 * n - 2).toSet)
  }

  test("two points merge at their distance") {
    val d = Array(0.0, 3.5, 3.5, 0.0)
    val merges = Linkage.agglomerate(2, d, Array(1, 1), Linkage.Complete)
    assert(merges.length == 1 && merges(0).dist == 3.5)
  }

  test("single cluster needs no merges") {
    assert(Linkage.agglomerate(1, Array(0.0), Array(1), Linkage.Complete).isEmpty)
  }

  test("clusterDistances = max pairwise") {
    val members = Array(Array(0, 1), Array(2, 3, 4))
    def pd(a: Int, b: Int): Double = (a * 5 + b).toDouble
    val comp = Linkage.clusterDistances(members, Array.tabulate(25)(_.toDouble), 5)
    val pairs = for (x <- members(0); y <- members(1)) yield pd(x, y)
    assert(comp(0 * 2 + 1) == pairs.max)

    // asymmetric, d(a, b) != d(b, a), with one +inf entry: each pair is
    // read from the row of the earlier cluster's point
    val d = Array.tabulate(25)(x => 10.0 * (x / 5) + x % 5)
    d(3 * 5 + 4) = Double.PositiveInfinity
    val ms = Array(Array(3, 0), Array(4, 1), Array(2))
    val k = ms.length
    val cd = Linkage.clusterDistances(ms, d, 5)
    for (i <- 0 until k; j <- i + 1 until k) {
      val fromEarlier = (for (a <- ms(i); b <- ms(j)) yield d(a * 5 + b)).max
      val fromLater = (for (a <- ms(i); b <- ms(j)) yield d(b * 5 + a)).max
      assert(fromEarlier != fromLater, s"clusters $i, $j")
      assert(cd(i * k + j) == fromEarlier && cd(j * k + i) == fromEarlier, s"clusters $i, $j")
    }
    assert(cd(0 * k + 1).isPosInfinity && d(4 * 5 + 3) == 43.0)
  }

  test("hac dendrogram is monotone and cuts into k clusters") {
    val n = 30
    val d = TestUtils.randomDist(n, 8)
    for (method <- Seq[Linkage.Method](Linkage.Complete, Linkage.Average)) {
      val dendro = Linkage.hac(d, method)
      assert(dendro.isMonotone)
      for (k <- Seq(1, 2, 5, n)) {
        val labels = dendro.cut(k)
        assert(labels.distinct.length == k, s"method=$method k=$k")
      }
    }
  }

  test("hac on clearly separated blobs recovers them at k=2") {
    // two blocks: within-distance ~0.1, across ~10
    val n = 12
    val d = SymMatrix.zeros(n)
    val rng = new scala.util.Random(5)
    for (i <- 0 until n; j <- i + 1 until n) {
      val same = (i < 6) == (j < 6)
      d.update(i, j, (if (same) 0.1 else 10.0) + rng.nextDouble() * 0.01)
    }
    for (method <- Seq[Linkage.Method](Linkage.Complete, Linkage.Average)) {
      val labels = Linkage.hac(d, method).cut(2)
      assert(labels.slice(0, 6).distinct.length == 1)
      assert(labels.slice(6, 12).distinct.length == 1)
      assert(labels(0) != labels(6))
    }
  }

  test("agglomerate respects initial cluster sizes for average linkage") {
    // clusters {a}, {b,c}: average linkage must weight by size 2
    // d(a, {b,c}) after merging b,c should be (d(ab) + d(ac)) / 2
    val d = Array(
      0.0, 1.0, 9.0,
      1.0, 0.0, 0.5,
      9.0, 0.5, 0.0)
    val merges = Linkage.agglomerate(3, d, Array(1, 1, 1), Linkage.Average)
    // first merge: (1,2) at 0.5; second: a joins at (1+9)/2 = 5
    assert(merges(0).dist == 0.5)
    assert(math.abs(merges(1).dist - 5.0) < 1e-12)
  }
}
