package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class StockPipelineSpec extends AnyFunSuite {

  private def rejected(args: String*): String = {
    val msg = StockPipeline.parseArgs(args.toArray).swap.getOrElse(fail(s"accepted ${args.mkString(" ")}"))
    assert(!msg.contains('\n') && msg.endsWith(StockPipeline.Usage), msg)
    msg
  }

  test("default and valid arguments parse") {
    assert(StockPipeline.parseArgs(Array()) == Right(30))
    assert(StockPipeline.parseArgs(Array("1")) == Right(1))
    assert(StockPipeline.parseArgs(Array("17")) == Right(17))
  }

  test("a prefix below 1 or not an integer is rejected with a usage line") {
    assert(rejected("abc").contains("prefix 'abc' is not an integer"))
    assert(rejected("2.5").contains("prefix '2.5' is not an integer"))
    assert(rejected("0").contains("prefix 0 is below 1"))
    assert(rejected("-3").contains("prefix -3 is below 1"))
  }

  test("extra arguments are rejected") {
    assert(rejected("10", "3").contains("at most 1 argument"))
  }
}
