package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils
import repro.data.TimeSeriesGen
import scala.collection.mutable.ArrayBuffer

class ExecSpec extends AnyFunSuite {

  /** Java-serialized size of a task function, as Spark ships a closure. */
  private def bytes(f: AnyRef): Int = {
    val buf = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(buf)
    out.writeObject(f)
    out.close()
    buf.size
  }

  test("no stage ships an n x n array: every task function serializes to under 4n bytes") {
    val n  = 300
    val ds = TimeSeriesGen.make("exec", n, 64, 4, noise = 1.0, seed = 3)
    Par.withThreads(2) { par =>
      var stage = ""
      val sizes = ArrayBuffer[(String, Int)]()
      val exec  = new TestUtils.TestExec(par, f => sizes += stage -> bytes(f))
      stage = "pearson"
      val s = Correlation.pearson(ds.data, exec)
      val d = Correlation.dissimilarity(s, par)
      stage = "tmfg"
      val res = Tmfg.build(s, 10, exec)
      stage = "apsp"
      val apsp = Apsp.allPairs(res.graph, d, exec)
      val asg  = Dbht.assign(Dbht.bubblesFromTmfg(res, s, par), res.graph, s, apsp, par)
      stage = "dbht"
      val den = Dbht.dendrogram(n, asg, apsp, exec)

      for (st <- Seq("pearson", "tmfg", "apsp", "dbht")) assert(sizes.exists(_._1 == st), s"$st ran no task")
      info(sizes.groupBy(_._1).map { case (st, xs) => s"$st ${xs.map(_._2).max} B" }.toSeq.sorted.mkString(", "))
      val (worst, size) = sizes.maxBy(_._2)
      assert(size < 4 * n, s"a $worst task function serializes to $size bytes")

      // the executor changes where tasks run, not what they compute
      assert(s.data.sameElements(Correlation.pearson(ds.data, par).data))
      assert(res.graph.edges == Tmfg.build(s, 10, par).graph.edges)
      assert(apsp.data.sameElements(Apsp.allPairs(res.graph, d, par).data))
      val parDen = Dbht.dendrogram(n, asg, apsp, par)
      assert(den.left.sameElements(parDen.left) && den.right.sameElements(parDen.right))
      assert(den.height.sameElements(parDen.height))
    }
  }
}
