package repro.core

import org.scalatest.funsuite.AnyFunSuite

class DendrogramSpec extends AnyFunSuite {

  // ((0,1)@1.0, 2)@2.0, (3)@3.0  over 4 leaves
  private def sample: Dendrogram = {
    val b = new DendroBuilder(4)
    val a = b.merge(0, 1, 1.0)
    val c = b.merge(a, 2, 2.0)
    b.merge(c, 3, 3.0)
    b.build()
  }

  test("root id is 2n-2") {
    assert(sample.root == 6)
  }

  test("leavesUnder") {
    val d = sample
    assert(d.leavesUnder(4).sorted.toSeq == Seq(0, 1))
    assert(d.leavesUnder(5).sorted.toSeq == Seq(0, 1, 2))
    assert(d.leavesUnder(d.root).sorted.toSeq == Seq(0, 1, 2, 3))
    assert(d.leavesUnder(2).toSeq == Seq(2))
  }

  test("heightOf: leaves are 0, internal nodes their height") {
    val d = sample
    assert(d.heightOf(0) == 0.0 && d.heightOf(4) == 1.0 && d.heightOf(6) == 3.0)
  }

  test("cut(1) puts everything together") {
    assert(sample.cut(1).distinct.length == 1)
  }

  test("cut(2) splits at the root") {
    val labels = sample.cut(2)
    assert(labels.toSeq == Seq(0, 0, 0, 1))
  }

  test("cut(3) splits the two highest nodes") {
    val labels = sample.cut(3)
    assert(labels(0) == labels(1))
    assert(Set(labels(0), labels(2), labels(3)).size == 3)
  }

  test("cut(n) gives all singletons") {
    assert(sample.cut(4).toSeq == Seq(0, 1, 2, 3))
  }

  test("cut labels are 0..k-1 ordered by smallest member") {
    val labels = sample.cut(3)
    assert(labels.min == 0 && labels.max == 2)
    assert(labels(0) == 0) // leaf 0's cluster gets label 0
  }

  test("cut out of range is rejected") {
    intercept[IllegalArgumentException](sample.cut(0))
    intercept[IllegalArgumentException](sample.cut(5))
  }

  test("isMonotone detects violations") {
    val b = new DendroBuilder(3)
    val a = b.merge(0, 1, 2.0)
    b.merge(a, 2, 1.0) // parent lower than child
    assert(!b.build().isMonotone)
    assert(sample.isMonotone)
  }

  test("builder rejects wrong merge counts") {
    val b = new DendroBuilder(3)
    b.merge(0, 1, 1.0)
    intercept[IllegalArgumentException](b.build())
  }

  test("single leaf dendrogram") {
    val d = new DendroBuilder(1).build()
    assert(d.cut(1).toSeq == Seq(0))
  }
}
