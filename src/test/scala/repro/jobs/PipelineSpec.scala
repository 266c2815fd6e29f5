package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class PipelineSpec extends AnyFunSuite {

  private def rejected(args: String*): String = {
    val msg = Pipeline.parseArgs(args.toArray).swap.getOrElse(fail(s"accepted ${args.mkString(" ")}"))
    assert(!msg.contains('\n') && msg.endsWith(Pipeline.Usage), msg)
    msg
  }

  test("defaults and valid arguments parse") {
    assert(Pipeline.parseArgs(Array()) == Right((6, 10)))
    assert(Pipeline.parseArgs(Array("1")) == Right((1, 10)))
    assert(Pipeline.parseArgs(Array("2", "1")) == Right((2, 1)))
  }

  test("a non-integer or unknown dataset id is rejected with a usage line") {
    assert(rejected("ecg").contains("datasetId 'ecg' is not an integer"))
    assert(rejected("999", "10").contains("no dataset with id 999"))
  }

  test("a prefix below 1 or not an integer is rejected with a usage line") {
    assert(rejected("6", "0").contains("prefix 0 is below 1"))
    assert(rejected("6", "-3").contains("prefix -3 is below 1"))
    assert(rejected("6", "2.5").contains("prefix '2.5' is not an integer"))
  }

  test("extra arguments are rejected") {
    assert(rejected("6", "10", "3").contains("at most 2 arguments"))
  }
}
