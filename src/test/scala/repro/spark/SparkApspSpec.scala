package repro.spark

import repro.{SparkSpec, TestUtils}
import repro.core.{Apsp, Correlation, Par, Tmfg}

class SparkApspSpec extends SparkSpec {

  test("RDD APSP equals the kernel APSP") {
    val s = TestUtils.randomSim(50, 1)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(4)(par => Tmfg.build(s, 4, par)).graph
    val kernel = Par.withThreads(4)(par => Apsp.allPairs(g, d, par))
    val dist = onSpark(Apsp.allPairs(g, d, _))
    assert(dist.data.sameElements(kernel.data))
  }

  test("RDD APSP is symmetric with zero diagonal") {
    val s = TestUtils.randomSim(20, 2)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(2)(par => Tmfg.build(s, 1, par)).graph
    val apsp = onSpark(Apsp.allPairs(g, d, _))
    for (i <- 0 until 20) {
      assert(apsp(i, i) == 0.0)
      for (j <- 0 until 20) assert(math.abs(apsp(i, j) - apsp(j, i)) < 1e-12)
    }
  }

  test("RDD APSP equals the kernel on duplicated rows and quantised similarities") {
    val inputs = Seq(
      "duplicated rows"        -> TestUtils.tmfgOfCopies(20, 21)(identity),
      "quantised similarities" -> TestUtils.tmfgWithD(TestUtils.quantisedSim(60, 1), 3))
    for ((what, (g, d)) <- inputs) {
      val kernel = Par.withThreads(4)(par => Apsp.allPairs(g, d, par))
      assert(onSpark(Apsp.allPairs(g, d, _)).data.sameElements(kernel.data), what)
    }
  }
}
