package repro.core

import org.scalatest.funsuite.AnyFunSuite
import java.util.concurrent.atomic.AtomicLong

class ParSpec extends AnyFunSuite {

  test("parFor visits every index exactly once (1 thread)") {
    Par.withThreads(1) { par =>
      val hits = new Array[Int](1000)
      par.parFor(1000)(i => hits(i) += 1)
      assert(hits.forall(_ == 1))
    }
  }

  test("parFor visits every index exactly once (8 threads)") {
    Par.withThreads(8) { par =>
      val hits = new Array[AtomicLong](10000).map(_ => new AtomicLong())
      par.parFor(10000)(i => hits(i).incrementAndGet())
      assert(hits.forall(_.get == 1))
    }
  }

  test("parFor with n = 0 is a no-op") {
    Par.withThreads(4) { par =>
      var called = false
      par.parFor(0)(_ => called = true)
      assert(!called)
    }
  }

  test("parFor with n = 1 runs the body once") {
    Par.withThreads(4) { par =>
      val count = new AtomicLong()
      par.parFor(1)(_ => count.incrementAndGet())
      assert(count.get == 1)
    }
  }

  test("parFor honors grain (small n stays sequential)") {
    Par.withThreads(4) { par =>
      val t0 = Thread.currentThread()
      var sameThread = true
      par.parFor(10, grain = 100)(_ => sameThread &&= Thread.currentThread() == t0)
      assert(sameThread)
    }
  }

  test("parMap produces f(i) at every slot") {
    for (threads <- Seq(1, 2, 8)) {
      Par.withThreads(threads) { par =>
        val out = par.parMap(5000)(i => i * i)
        assert(out.zipWithIndex.forall { case (v, i) => v == i * i })
      }
    }
  }

  test("worker exceptions propagate to the caller") {
    Par.withThreads(4) { par =>
      val ex = intercept[Exception] {
        par.parFor(1000)(i => if (i == 777) throw new IllegalStateException("boom"))
      }
      def causes(t: Throwable): List[Throwable] =
        if (t == null) Nil else t :: causes(t.getCause)
      assert(causes(ex).exists(_.isInstanceOf[IllegalStateException]))
    }
  }

  test("a worker's exception reaches the caller as thrown, not wrapped") {
    Par.withThreads(4) { par =>
      intercept[IllegalStateException](par.parFor(1000)(i => if (i == 777) throw new IllegalStateException("boom")))
    }
  }

  test("threads < 1 is rejected") {
    intercept[IllegalArgumentException](new Par(0))
  }

  test("default uses all processors") {
    Par.default { par =>
      assert(par.threads == Runtime.getRuntime.availableProcessors())
    }
  }

  test("parFor result identical across thread counts") {
    def run(threads: Int): Array[Double] = Par.withThreads(threads) { par =>
      par.parMap(2000)(i => math.sin(i) * math.cos(i / 2.0))
    }
    assert(run(1).sameElements(run(7)))
  }
}
