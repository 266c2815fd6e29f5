package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Ari
import repro.data.TimeSeriesGen
import repro.harness.{Datasets, Experiments}
import repro.spark.SparkPipeline

/** spark-submit entrypoints, one per reproduced table plus the
  * end-to-end distributed pipeline. Example:
  *
  *   spark-submit --class repro.jobs.T1Runtime target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar
  *   spark-submit --class repro.jobs.Pipeline  <jar> 17 10
  *
  * The table jobs drive the kernel implementation (the Spark layer's
  * equivalence is established by the test suite; the kernel is what the
  * timing experiments measure — see DESIGN.md).
  */
object T0Datasets { def main(args: Array[String]): Unit = Experiments.t0() }

object T1Runtime { def main(args: Array[String]): Unit = { Experiments.t1(); () } }

object T2Speedup { def main(args: Array[String]): Unit = { Experiments.t2(); () } }

object T3Breakdown { def main(args: Array[String]): Unit = { Experiments.t3(); () } }

object T4PrefixQuality { def main(args: Array[String]): Unit = { Experiments.t4(); () } }

object T5EdgeWeight { def main(args: Array[String]): Unit = { Experiments.t5(); () } }

object T6Quality { def main(args: Array[String]): Unit = { Experiments.t6(); () } }

object T7SpectralSensitivity { def main(args: Array[String]): Unit = { Experiments.t7(); () } }

object T8Stock { def main(args: Array[String]): Unit = { Experiments.t8(); () } }

/** Fully distributed pipeline on one registry dataset:
  * args = [datasetId] [prefix], defaults 6 (ecg-like) and 10. Bad
  * arguments end the job with a usage line before Spark starts.
  */
object Pipeline {
  val Usage: String =
    s"usage: Pipeline [datasetId: one of ${Datasets.specs.map(_.id).mkString(", ")}] [prefix >= 1]"

  /** (datasetId, prefix) from the arguments, or Left(a one-line usage
    * message naming the bad argument).
    */
  def parseArgs(args: Array[String]): Either[String, (Int, Int)] = {
    def int(i: Int, default: Int, name: String): Either[String, Int] =
      args.lift(i).fold[Either[String, Int]](Right(default))(a =>
        a.toIntOption.toRight(s"$name '$a' is not an integer; $Usage"))
    for {
      _      <- Either.cond(args.length <= 2, (), s"expected at most 2 arguments, got ${args.length}; $Usage")
      id     <- int(0, 6, "datasetId")
      _      <- Either.cond(Datasets.specs.exists(_.id == id), (), s"no dataset with id $id; $Usage")
      prefix <- int(1, 10, "prefix")
      _      <- Either.cond(prefix >= 1, (), s"prefix $prefix is below 1; $Usage")
    } yield (id, prefix)
  }

  def main(args: Array[String]): Unit = {
    val (id, prefix) = parseArgs(args) match {
      case Right(parsed) => parsed
      case Left(msg)     => System.err.println(msg); sys.exit(2)
    }
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-pipeline-$id")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val sp = Datasets.byId(id)
      val ds = sp.generate()
      val t0 = System.nanoTime()
      val out = SparkPipeline.run(spark, ds, prefix, sp.classes)
      val secs = (System.nanoTime() - t0) / 1e9
      println(f"dataset=${sp.name} n=${ds.n} prefix=$prefix rounds=${out.rounds} " +
        f"edges=${out.graph.numEdges} time=$secs%.2fs ARI=${Ari.ari(out.labels, ds.labels)}%.4f")
    } finally spark.stop()
  }
}

/** Distributed pipeline on the synthetic stock panel (T8's data):
  * args = [prefix], default 30. Bad arguments end the job with a usage
  * line before Spark starts.
  */
object StockPipeline {
  val Usage: String = "usage: StockPipeline [prefix >= 1]"

  /** The prefix from the arguments, or Left(a one-line usage message
    * naming the bad argument).
    */
  def parseArgs(args: Array[String]): Either[String, Int] =
    for {
      _      <- Either.cond(args.length <= 1, (), s"expected at most 1 argument, got ${args.length}; $Usage")
      prefix <- args.headOption.fold[Either[String, Int]](Right(30))(a =>
                  a.toIntOption.toRight(s"prefix '$a' is not an integer; $Usage"))
      _      <- Either.cond(prefix >= 1, (), s"prefix $prefix is below 1; $Usage")
    } yield prefix

  def main(args: Array[String]): Unit = {
    val prefix = parseArgs(args) match {
      case Right(parsed) => parsed
      case Left(msg)     => System.err.println(msg); sys.exit(2)
    }
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-stock-pipeline")
      .getOrCreate()
    try {
      val ds = TimeSeriesGen.stocks()
      val out = SparkPipeline.run(spark, ds, prefix, ds.numClasses)
      println(f"stocks n=${ds.n} prefix=$prefix ARI=${Ari.ari(out.labels, ds.labels)}%.4f")
    } finally spark.stop()
  }
}
