package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.TestUtils
import repro.pmfg.Planarity

/** ScalaCheck property tests over the core substrates, driven through
  * raw ScalaCheck (only scalatest + scalacheck ship offline; the
  * scalatestplus bridge does not).
  */
class PropertySpec extends AnyFunSuite {

  private def check(p: Prop, tests: Int = 30): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), p)
    assert(res.passed, res.status.toString)
  }

  private val smallN = Gen.choose(4, 24)
  private val seeds  = Gen.choose(1L, 10000L)

  test("property: TMFG always has 3n-6 edges, is planar, has n-3 bubbles") {
    check(Prop.forAll(smallN, seeds, Gen.choose(1, 6)) { (n, seed, prefix) =>
      val s = TestUtils.randomSim(n, seed)
      val res = Par.withThreads(2)(par => Tmfg.build(s, prefix, par))
      res.graph.numEdges == 3 * n - 6 &&
        Planarity.isPlanar(n, res.graph.edges) &&
        res.tree.numBubbles == n - 3
    })
  }

  test("property: ARI is symmetric; identical partitions score 1") {
    val labelGen = for {
      n  <- Gen.choose(10, 60)
      xs <- Gen.listOfN(n, Gen.choose(0, 4))
    } yield xs.toArray
    check(Prop.forAll(labelGen, seeds) { (a, seed) =>
      val rng = new scala.util.Random(seed)
      val b = Array.fill(a.length)(rng.nextInt(5))
      math.abs(Ari.ari(a, b) - Ari.ari(b, a)) < 1e-12 && Ari.ari(a, a) == 1.0
    })
  }

  test("property: ARI invariant under label permutation") {
    check(Prop.forAll(Gen.choose(10, 50), Gen.choose(2, 5), seeds) { (n, k, seed) =>
      val rng = new scala.util.Random(seed)
      val a = Array.fill(n)(rng.nextInt(k))
      val b = Array.fill(n)(rng.nextInt(k))
      val perm = rng.shuffle((0 until k).toList).toArray
      math.abs(Ari.ari(a, b) - Ari.ari(a, b.map(perm))) < 1e-12
    })
  }

  test("property: linkage merges are monotone and complete") {
    val methodGen = Gen.oneOf[Linkage.Method](Linkage.Complete, Linkage.Average)
    check(Prop.forAll(Gen.choose(3, 20), seeds, methodGen) { (n, seed, method) =>
      val d = TestUtils.randomDist(n, seed)
      val merges = Linkage.agglomerate(n, d.data, Array.fill(n)(1), method)
      merges.length == n - 1 &&
        merges.sliding(2).forall {
          case Array(x, y) => x.dist <= y.dist + 1e-12
          case _           => true
        }
    })
  }

  test("property: dendrogram cut(k) yields exactly k clusters for every k") {
    check(Prop.forAll(Gen.choose(4, 20), seeds) { (n, seed) =>
      val d = TestUtils.randomDist(n, seed)
      val den = Linkage.hac(d, Linkage.Complete)
      (1 to n).forall(k => den.cut(k).distinct.length == k)
    }, tests = 20)
  }

  test("property: Dijkstra distances relax every TMFG edge") {
    check(Prop.forAll(Gen.choose(5, 20), seeds) { (n, seed) =>
      val s = TestUtils.randomSim(n, seed)
      val d = Correlation.dissimilarity(s)
      val g = Par.withThreads(2)(par => Tmfg.build(s, 1, par)).graph
      val row = TestUtils.sssp(g, d, 0)
      g.edges.forall { case (u, v) =>
        row(v) <= row(u) + d(u, v) + 1e-9 && row(u) <= row(v) + d(u, v) + 1e-9
      }
    })
  }

  test("property: parMap equals sequential tabulate at any thread count") {
    check(Prop.forAll(Gen.choose(0, 2000), Gen.choose(1, 8)) { (n, threads) =>
      val out = Par.withThreads(threads)(par => par.parMap(n)(i => i * 31 + 7))
      out.sameElements(Array.tabulate(n)(i => i * 31 + 7))
    })
  }

  test("property: subgraphs of TMFGs stay planar under edge deletion") {
    check(Prop.forAll(Gen.choose(6, 18), seeds) { (n, seed) =>
      val s = TestUtils.randomSim(n, seed)
      val g = Par.withThreads(2)(par => Tmfg.build(s, 2, par)).graph
      val rng = new scala.util.Random(seed)
      Planarity.isPlanar(n, g.edges.filter(_ => rng.nextBoolean()))
    })
  }

  test("property: zscore output has zero mean") {
    val rowGen = for {
      len <- Gen.choose(3, 50)
      xs  <- Gen.listOfN(len, Gen.choose(-100.0, 100.0))
    } yield xs.toArray
    check(Prop.forAll(rowGen) { row =>
      math.abs(Correlation.zscore(Array(row))(0).sum) < 1e-6
    })
  }

  test("property: dissimilarity lies in [0, 2] for correlations in [-1, 1]") {
    check(Prop.forAll(Gen.choose(3, 15), seeds) { (n, seed) =>
      val s = TestUtils.randomSim(n, seed)
      val d = Correlation.dissimilarity(s)
      (0 until n).forall(i => (0 until n).forall(j =>
        i == j || (d(i, j) >= 0.0 && d(i, j) <= 2.0 + 1e-12)))
    })
  }

  test("property: bubble tree directions give at least one converging bubble") {
    check(Prop.forAll(Gen.choose(5, 25), seeds, Gen.choose(1, 4)) { (n, seed, prefix) =>
      val s = TestUtils.randomSim(n, seed)
      val res = Par.withThreads(2)(par => Tmfg.build(s, prefix, par))
      val bub = Par.withThreads(2)(par => Dbht.bubblesFromTmfg(res, s, par))
      bub.convergingBubbles.nonEmpty
    })
  }

  test("property: full DBHT pipeline covers every vertex in some cluster") {
    check(Prop.forAll(Gen.choose(8, 25), seeds) { (n, seed) =>
      val s = TestUtils.randomSim(n, seed)
      val labels = Par.withThreads(2) { par =>
        val d = Correlation.dissimilarity(s)
        val res = Tmfg.build(s, 2, par)
        val apsp = Apsp.allPairs(res.graph, d, par)
        val bub = Dbht.bubblesFromTmfg(res, s, par)
        val asg = Dbht.assign(bub, res.graph, s, apsp, par)
        Dbht.dendrogram(n, asg, apsp, par).cut(math.min(3, n))
      }
      labels.length == n && labels.distinct.length == math.min(3, n)
    }, tests = 20)
  }
}
