package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import repro.core._
import repro.data.TimeSeriesGen
import scala.collection.mutable.{ArrayBuffer, LinkedHashMap}
import scala.util.control.NonFatal

/** One benchmark input: a `TimeSeriesGen.make` dataset of n series of
  * length `len` (8 classes, noise 1.3) clustered by the PAR-TDBHT kernel
  * pipeline at `prefix`, on one thread or on every core.
  */
final case class Workload(name: String, n: Int, len: Int, prefix: Int, serial: Boolean)

/** Runs one workload: set-up (data, one cold untraced run), then the
  * benchmark's own checks (a traced run that samples the live heap,
  * exactness oracle, host calibration), then timed runs, each after a
  * forced GC, for the given seconds; with `--trace 1` each timed run is
  * followed by a traced run. Every run's output is checked. With
  * `--setup-only 1` it stops after set-up (perfbench/run.py takes the
  * median `setup_s` over several JVMs).
  * Writes the measured values as JSON to `--out`; perfbench/run.py turns
  * them into the report.
  */
object Main {
  val Classes = 8
  val Noise   = 1.3

  val Workloads: Seq[Workload] = Seq(
    Workload("batched-4k", 4000, 96, 10, serial = false),
    Workload("serial-longseries-1.2k", 1200, 2048, 1, serial = true),
  )

  /** `setupOnly`: stop after set-up and report only `setup_s`. */
  final case class Opts(workload: Workload, seed: Long, seconds: Double, trace: Boolean, out: String,
                        setupOnly: Boolean)

  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, "arguments come in --name value pairs")
    val m = args.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.find(_.name == get("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${get("workload")}; known: ${Workloads.map(_.name).mkString(", ")}"))
    val seconds = get("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    require(Set("0", "1")(get("trace")), "--trace is 0 or 1")
    Opts(wl, get("seed").toLong, seconds, get("trace") == "1", get("out"), m.getOrElse("setup-only", "0") == "1")
  }

  def main(args: Array[String]): Unit = {
    val startNs = System.nanoTime()
    val jvmUpS  = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val opts = try parse(args) catch {
      case e: IllegalArgumentException => System.err.println(s"perfbench: ${e.getMessage}"); sys.exit(2)
    }
    val bench = new Bench(opts, jvmUpS, startNs)
    val ok = try bench.run() finally bench.close()
    sys.exit(if (ok) 0 else 1)
  }

  /** SHA-256 of the merge structure and height bits, first 16 hex digits. */
  def fingerprint(d: Dendrogram): String = {
    val m  = d.left.length
    val bb = ByteBuffer.allocate(4 + m * 16)
    bb.putInt(d.nLeaves)
    for (t <- 0 until m) {
      bb.putInt(d.left(t)); bb.putInt(d.right(t)); bb.putLong(java.lang.Double.doubleToLongBits(d.height(t)))
    }
    java.security.MessageDigest.getInstance("SHA-256").digest(bb.array()).take(8).map("%02x".format(_)).mkString
  }

  /** Each merge joins two distinct earlier nodes, none of them merged twice. */
  def isBinaryTree(d: Dendrogram): Boolean = {
    val n = d.nLeaves
    val used = new Array[Boolean](2 * n - 1)
    (0 until n - 1).forall { t =>
      val (a, b) = (d.left(t), d.right(t))
      val ok = a != b && a >= 0 && b >= 0 && a < n + t && b < n + t && !used(a) && !used(b)
      if (ok) { used(a) = true; used(b) = true }
      ok
    }
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Seconds for a fixed job that does not touch the program: a 256 x 256
    * matrix product on each of `threads` threads at once, median of 21. A
    * probe of host speed, cores taken by other processes included, so that
    * a change of `pipeline_s` between runs can be told from host drift.
    */
  def calibrationS(threads: Int): Double = {
    val m = 256
    val a = Array.tabulate(m * m)(i => (i * 7919 % 1000) / 1000.0)
    val cs = Array.fill(threads)(new Array[Double](m * m))
    def product(c: Array[Double]): Unit = {
      java.util.Arrays.fill(c, 0.0)
      for (i <- 0 until m; k <- 0 until m) {
        val x = a(i * m + k)
        var j = 0
        while (j < m) { c(i * m + j) += x * a(k * m + j); j += 1 }
      }
    }
    val times = (1 to 21).map { _ =>
      val t0 = System.nanoTime()
      val ts = cs.map(c => new Thread(() => product(c)))
      ts.foreach(_.start())
      ts.foreach(_.join())
      (System.nanoTime() - t0) / 1e9
    }
    sink = cs.map(_(m * m - 1)).sum
    median(times)
  }

  /** Keeps the calibration's product observable, so it is not optimised away. */
  @volatile private var sink = 0.0

  /** Minimal JSON rendering of maps, sequences, strings, numbers and booleans. */
  def json(v: Any): String = v match {
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => json(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case s: Iterable[_] => s.map(json).mkString("[", ", ", "]")
    case s: String =>
      "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
      } + "\""
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case x @ (_: Int | _: Long | _: Boolean) => x.toString
    case other => throw new IllegalArgumentException(s"cannot render $other as JSON")
  }
}

final class Bench(o: Main.Opts, jvmUpS: Double, startNs: Long) extends AutoCloseable {
  import Main._

  private val wl      = o.workload
  private val nproc   = Runtime.getRuntime.availableProcessors()
  private val threads = if (wl.serial) 1 else nproc
  private val n       = wl.n

  private var attempted = 0
  private var failed    = 0
  private val problems  = ArrayBuffer.empty[String]
  private var refFingerprint: String = _
  private var refWeight  = Double.NaN
  private var refAri     = Double.NaN

  private val ds  = TimeSeriesGen.make(wl.name, n, wl.len, Classes, Noise, o.seed)
  private val par = new Par(threads)

  override def close(): Unit = par.close()

  private def log(msg: String): Unit =
    System.err.println(f"[perfbench ${(System.nanoTime() - startNs) / 1e9}%7.2fs] $msg")

  /** Problems with one run's output; the first run sets the reference. */
  private def check(out: Output): Seq[String] = {
    val errs = ArrayBuffer.empty[String]
    val l = out.labels
    if (l.length != n || l.exists(x => x < 0 || x >= Classes) || l.distinct.length != Classes)
      errs += s"labels are not a $Classes-partition of $n vertices"
    if (out.edges >= 0 && out.edges != 3 * n - 6) errs += s"TMFG has ${out.edges} edges, not ${3 * n - 6}"
    val d = out.dendrogram
    if (d.nLeaves != n || d.left.length != n - 1) errs += s"dendrogram has ${d.left.length} merges, not ${n - 1}"
    else {
      if (!isBinaryTree(d)) errs += "dendrogram merges do not form a binary tree"
      if (!d.isMonotone) errs += "dendrogram heights are not monotone"
    }
    val fp = fingerprint(d)
    if (refFingerprint == null) {
      refFingerprint = fp; refWeight = out.edgeWeight; refAri = Ari.ari(l, ds.labels)
    } else {
      if (fp != refFingerprint) errs += s"dendrogram fingerprint $fp differs from $refFingerprint"
      if (out.edgeWeight != refWeight) errs += s"edge weight ${out.edgeWeight} differs from $refWeight"
    }
    errs.toSeq
  }

  /** Runs and checks one pipeline run; failures are counted, not thrown.
    * Returns whether the run passed.
    */
  private def attempt(what: String)(run: => Output): Boolean = {
    attempted += 1
    val t0 = System.nanoTime()
    val errs = try check(run) catch { case NonFatal(e) => Seq(s"threw $e") }
    log(f"$what: ${(System.nanoTime() - t0) / 1e9}%.3f s, checked")
    if (errs.nonEmpty) {
      failed += 1
      problems ++= errs.map(e => s"$what: $e")
      errs.foreach(e => log(s"FAILED $what: $e"))
    }
    errs.isEmpty
  }

  /** One traced run: its tracer and its wall time, or None if it failed. */
  private def traced(what: String): Option[(Tracer, Double)] = {
    val tr = new Tracer("pipeline")
    var total = Double.NaN
    val ok = attempt(what) {
      val out = Pipelines.kernelTraced(ds, wl.prefix, Classes, par, tr)
      total = tr.elapsedSeconds
      out
    }
    if (ok) Some((tr, total)) else None
  }

  private val secs = ArrayBuffer.empty[Double]
  private val gcS  = ArrayBuffer.empty[Double]
  private val gcN  = ArrayBuffer.empty[Double]

  /** One untraced run after a forced GC; records its time and its GC work. */
  private def timedRun(what: String): Unit = {
    System.gc()
    val (g0, c0) = (Probe.gcMs(), Probe.gcCount())
    attempt(what) {
      val s0  = System.nanoTime()
      val out = Pipelines.kernel(ds, wl.prefix, Classes, par)
      secs += (System.nanoTime() - s0) / 1e9
      gcS  += (Probe.gcMs() - g0) / 1e3
      gcN  += (Probe.gcCount() - c0).toDouble
      out
    }
  }

  private def layerMetrics(kt: Tracer): Seq[(String, Double)] = {
    def util(sp: Span) = sp.cpuNs / 1e9 / (sp.seconds * threads)
    val (pe, di, tm, ap) = (kt("correlation.pearson"), kt("correlation.dissimilarity"), kt("tmfg.build"), kt("apsp.all_pairs"))
    val (bu, as, hi)     = (kt("bubble.tree"), kt("dbht.assign"), kt("dbht.hierarchy"))
    val madds  = n.toDouble * (n - 1) / 2 * wl.len
    val relax  = n.toDouble * 2 * (3 * n - 6)
    val rounds = kt.counts("tmfg.rounds")
    Seq(
      "correlation.pearson_s" -> pe.seconds,
      "correlation.pearson_util" -> util(pe),
      "correlation.madds" -> madds,
      "correlation.gmadds_per_s" -> madds / pe.seconds / 1e9,
      "correlation.dissimilarity_s" -> di.seconds,
      "correlation.dissimilarity_util" -> util(di),
      "correlation.live_mb" -> (pe.retainedMb + di.retainedMb),
      "tmfg.build_s" -> tm.seconds,
      "tmfg.util" -> util(tm),
      "tmfg.rounds" -> rounds,
      "tmfg.inserted_per_round" -> (n - 4) / rounds,
      "tmfg.edges" -> kt.counts("tmfg.edges"),
      "apsp.all_pairs_s" -> ap.seconds,
      "apsp.util" -> util(ap),
      "apsp.relaxations" -> relax,
      "apsp.mrelax_per_s" -> relax / ap.seconds / 1e6,
      "apsp.out_bytes" -> 8.0 * n * n,
      "apsp.live_mb" -> ap.retainedMb,
      "bubble.tree_s" -> bu.seconds,
      "bubble.count" -> kt.counts("bubble.count"),
      "bubble.converging" -> kt.counts("bubble.converging"),
      "dbht.assign_s" -> as.seconds,
      "dbht.assign_util" -> util(as),
      "dbht.groups" -> kt.counts("dbht.groups"),
      "dbht.lbar_vertices" -> kt.counts("dbht.lbar_vertices"),
      "dbht.hierarchy_s" -> hi.seconds,
      "dbht.hierarchy_util" -> util(hi),
      "dbht.max_group_size" -> kt.counts("dbht.max_group_size"),
      "dendrogram.cut_s" -> kt("dendrogram.cut").seconds,
    )
  }

  private def spanRecords(tr: Tracer): Seq[Map[String, Any]] =
    tr.spans.toSeq.map { sp =>
      Map("name" -> sp.name, "parent" -> sp.parent, "start_ns" -> (sp.startNs - startNs),
        "end_ns" -> (sp.endNs - startNs), "cpu_s" -> sp.cpuNs / 1e9, "live_mb" -> sp.liveMb)
    }

  def run(): Boolean = {
    log(s"workload ${wl.name}: n=$n L=${wl.len} prefix=${wl.prefix} threads=$threads seed=${o.seed}")
    // set-up, billed to setup_s: data generation (in the constructor) and
    // one cold untraced run, which also sets the reference output
    attempt("warm-up (untraced, cold)")(Pipelines.kernel(ds, wl.prefix, Classes, par))
    val setupS = jvmUpS + (System.nanoTime() - startNs) / 1e9
    log(f"set-up done: $setupS%.3f s")
    if (o.setupOnly) return write(LinkedHashMap("setup_s" -> setupS), LinkedHashMap.empty)

    // the benchmark's own work, not billed to setup_s: a traced run that
    // samples the live heap and must match the untraced reference, the
    // thread-count oracle, and the host calibration; these also warm the JIT
    val h0 = System.nanoTime()
    val warm = traced("traced run (live heap, traced = untraced oracle)")
    val liveHeapMb = warm.map { case (tr, _) => tr.maxLiveMb - tr.baseLiveMb }.getOrElse(Double.NaN)
    log(f"pipeline live heap $liveHeapMb%.1f MiB")
    if (wl.serial) attempt(s"oracle: $nproc threads") {
      Par.withThreads(nproc)(p => Pipelines.kernel(ds, wl.prefix, Classes, p))
    }
    val calibration = calibrationS(threads)
    val harnessS = (System.nanoTime() - h0) / 1e9
    log(f"checks done: $harnessS%.3f s, calibration $calibration%.5f s")

    // timed runs for the given seconds, at least one, failed ones included;
    // with tracing, each is followed by a traced run, so both kinds see the
    // same JIT and machine state
    val perRun = ArrayBuffer.empty[Seq[(String, Double)]]
    val tracedS = ArrayBuffer.empty[Double]
    var spans: Seq[Map[String, Any]] = Nil
    val t0 = System.nanoTime()
    var round = 0
    while (round == 0 || (System.nanoTime() - t0) / 1e9 < o.seconds) {
      round += 1
      timedRun(s"timed run $round")
      if (o.trace) traced(s"traced run $round").foreach { case (tr, total) =>
        perRun += layerMetrics(tr)
        tracedS += total
        spans = spanRecords(tr)
      }
    }

    val pipelineS = median(secs.toSeq)
    val metrics = LinkedHashMap.empty[String, Double]
    val extra = LinkedHashMap[String, Any]("pipeline_samples" -> secs.length, "pipeline_median_s" -> pipelineS,
      "pipeline_runs_s" -> secs.toSeq, "ari" -> refAri, "fingerprint" -> String.valueOf(refFingerprint),
      "harness_s" -> harnessS, "calibration_s" -> calibration)
    // highest percentile with at least ten samples beyond it
    if (secs.length >= 11) {
      val sorted = secs.sorted
      extra ++= Seq("pipeline_tail_s" -> sorted(secs.length - 11),
        "pipeline_tail_pct" -> 100.0 * (secs.length - 10) / secs.length)
    }
    if (!o.trace) {
      metrics ++= Seq("pipeline_s" -> pipelineS, "setup_s" -> setupS, "live_heap_mb" -> liveHeapMb,
        "edge_weight" -> refWeight)
    } else if (perRun.nonEmpty) {
      for ((name, _) <- perRun.head) metrics(name) = median(perRun.toSeq.map(_.toMap.apply(name)))
      metrics ++= Seq("ari" -> refAri, "jvm.gc_s" -> median(gcS.toSeq), "jvm.gc_count" -> median(gcN.toSeq),
        "trace.overhead_s" -> (median(tracedS.toSeq) - pipelineS))
      extra ++= Seq("traced_samples" -> perRun.length, "spans" -> spans)
    }
    write(metrics, extra)
  }

  /** Writes the result record to `--out`; returns whether every run passed. */
  private def write(metrics: LinkedHashMap[String, Double], extra: LinkedHashMap[String, Any]): Boolean = {
    val rt = Runtime.getRuntime
    val result = LinkedHashMap[String, Any](
      "workload" -> wl.name, "seed" -> o.seed, "trace" -> o.trace,
      "context" -> Map("nproc" -> nproc, "threads" -> threads, "max_heap_mb" -> rt.maxMemory / 1048576.0,
        "jvm" -> System.getProperty("java.vm.version"), "n" -> n, "len" -> wl.len, "prefix" -> wl.prefix,
        "classes" -> Classes, "noise" -> Noise),
      "attempted" -> attempted, "failed" -> failed, "problems" -> problems.toSeq,
      "metrics" -> metrics, "extra" -> extra)
    Files.write(Paths.get(o.out), json(result).getBytes(StandardCharsets.UTF_8))
    failed == 0
  }
}
