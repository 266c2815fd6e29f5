package repro.harness

import repro.core._
import repro.data.TimeSeriesGen
import repro.pmfg.Pmfg

/** One entry point per reproduced table (see DESIGN.md "Evaluation
  * artifacts reproduced"). Each prints the table via TableFmt and returns
  * the measured rows; bench suites assert on the returned values and
  * `jobs/` wraps them for spark-submit. Paper-side numbers live in
  * EXPERIMENTS.md next to ours.
  */
object Experiments {

  def maxThreads: Int = math.min(16, Runtime.getRuntime.availableProcessors())

  // ---------------------------------------------------------------- T0

  /** Table II stand-in: the dataset registry, ours vs the paper's. */
  def t0(): Unit = {
    val rows = Datasets.specs.map { sp =>
      Seq(sp.id.toString, sp.paperName,
        s"${sp.paperN}/${sp.paperL}/${sp.paperClasses}",
        s"${sp.n}/${sp.len}/${sp.classes}", sp.noise.toString)
    }
    TableFmt.print("T0: datasets (paper Table II vs synthetic stand-ins)",
      Seq("id", "paper name", "paper n/L/classes", "ours n/L/classes", "noise"), rows)
  }

  // ---------------------------------------------------------------- T1

  final case class T1Row(id: Int, n: Int,
                         pmfg: Option[Double], seq: Option[Double],
                         par1seq: Double, par10seq: Double,
                         par1: Double, par10: Double,
                         comp: Double, avg: Double)

  /** Fig. 3: runtimes of all hierarchical methods per dataset, single
    * thread and all threads.
    */
  def t1(): Seq[T1Row] = {
    val rows = Datasets.specs.map { sp =>
      val ds = sp.generate()
      val (s, d) = Par.withThreads(maxThreads)(par => Methods.correlationInput(ds, par))
      val k = sp.classes
      val pmfg = if (sp.n <= Datasets.pmfgMaxN) Some(Methods.pmfgDbht(s, d, k).timings.total) else None
      val seq  = if (sp.n <= Datasets.seqMaxN) Some(Methods.seqTdbht(s, d, k).timings.total) else None
      val par1seq  = Par.withThreads(1)(par => Methods.parTdbht(s, d, 1, k, par)).timings.total
      val par10seq = Par.withThreads(1)(par => Methods.parTdbht(s, d, 10, k, par)).timings.total
      val par1  = Par.withThreads(maxThreads)(par => Methods.parTdbht(s, d, 1, k, par)).timings.total
      val par10 = Par.withThreads(maxThreads)(par => Methods.parTdbht(s, d, 10, k, par)).timings.total
      val comp = Methods.hacBaseline(d, k, Linkage.Complete).timings.total
      val avg  = Methods.hacBaseline(d, k, Linkage.Average).timings.total
      T1Row(sp.id, sp.n, pmfg, seq, par1seq, par10seq, par1, par10, comp, avg)
    }
    def opt(o: Option[Double]) = o.map(TableFmt.secs).getOrElse("timeout")
    TableFmt.print("T1: runtime per dataset (Fig. 3)",
      Seq("id", "n", "PMFG-DBHT", "SEQ-TDBHT", "PAR-1 (1t)", "PAR-10 (1t)",
        s"PAR-1 (${maxThreads}t)", s"PAR-10 (${maxThreads}t)", "COMP", "AVG"),
      rows.map(r => Seq(r.id.toString, r.n.toString, opt(r.pmfg), opt(r.seq),
        TableFmt.secs(r.par1seq), TableFmt.secs(r.par10seq),
        TableFmt.secs(r.par1), TableFmt.secs(r.par10),
        TableFmt.secs(r.comp), TableFmt.secs(r.avg))))
    // slowdown summary (the paper's headline ratios)
    val withSeq = rows.filter(_.seq.isDefined)
    if (withSeq.nonEmpty) {
      val r1 = withSeq.map(r => r.seq.get / r.par1)
      val r10 = withSeq.map(r => r.seq.get / r.par10)
      println(f"SEQ-TDBHT / PAR-TDBHT-1  (${maxThreads}t): ${r1.min}%.1f - ${r1.max}%.1fx")
      println(f"SEQ-TDBHT / PAR-TDBHT-10 (${maxThreads}t): ${r10.min}%.1f - ${r10.max}%.1fx")
    }
    val withPmfg = rows.filter(_.pmfg.isDefined)
    if (withPmfg.nonEmpty) {
      val p1 = withPmfg.map(r => r.pmfg.get / r.par1seq)
      println(f"PMFG-DBHT / PAR-TDBHT-1 (1t): ${p1.min}%.1f - ${p1.max}%.1fx")
    }
    rows
  }

  // ---------------------------------------------------------------- T2

  final case class T2Row(prefix: Int, threads: Int, time: Double, speedup: Double)

  /** Fig. 4: self-relative speedup vs thread count per prefix size on the
    * largest (crop-like) dataset.
    */
  def t2(): Seq[T2Row] = {
    val spec = Datasets.byId(17)
    val ds = spec.generate()
    val (s, d) = Par.withThreads(maxThreads)(par => Methods.correlationInput(ds, par))
    val k = spec.classes
    val rows = for (prefix <- Seq(1, 10, 50, 200)) yield {
      val times = Seq(1, 2, 4, 8, 16).filter(_ <= maxThreads).map { t =>
        // best of two runs to suppress JIT/GC noise
        val tt = (1 to 2).map { _ =>
          Par.withThreads(t)(par => Methods.parTdbht(s, d, prefix, k, par)).timings.total
        }.min
        (t, tt)
      }
      val t1 = times.head._2
      times.map { case (t, tt) => T2Row(prefix, t, tt, t1 / tt) }
    }
    val flat = rows.flatten
    TableFmt.print(s"T2: self-relative speedup on ${spec.name} (Fig. 4)",
      Seq("prefix", "threads", "time", "speedup"),
      flat.map(r => Seq(r.prefix.toString, r.threads.toString,
        TableFmt.secs(r.time), TableFmt.f(r.speedup, 2) + "x")))
    flat
  }

  // ---------------------------------------------------------------- T3

  final case class T3Row(config: String, tmfg: Double, apsp: Double,
                         bubble: Double, hierarchy: Double)

  /** Fig. 5 + Runtime Decomposition: per-step times on the ECG-like
    * dataset for SEQ-TDBHT and PAR-TDBHT at several prefixes/threads.
    */
  def t3(): Seq[T3Row] = {
    val spec = Datasets.byId(6)
    val ds = spec.generate()
    val (s, d) = Par.withThreads(maxThreads)(par => Methods.correlationInput(ds, par))
    val k = spec.classes
    val rows = collection.mutable.ArrayBuffer[T3Row]()
    val seq = Methods.seqTdbht(s, d, k)
    rows += T3Row("SEQ-TDBHT", seq.timings.tmfg, seq.timings.apsp,
      seq.timings.bubble, seq.timings.hierarchy)
    for (prefix <- Seq(1, 10, 50); threads <- Seq(1, maxThreads)) {
      // best of two runs per step to suppress JIT/GC noise
      val ts = (1 to 2).map { _ =>
        Par.withThreads(threads)(par => Methods.parTdbht(s, d, prefix, k, par)).timings
      }
      val t = Methods.Timings(ts.map(_.tmfg).min, ts.map(_.apsp).min,
        ts.map(_.bubble).min, ts.map(_.hierarchy).min)
      rows += T3Row(s"PAR-$prefix (${threads}t)", t.tmfg, t.apsp, t.bubble, t.hierarchy)
    }
    TableFmt.print(s"T3: runtime decomposition on ${spec.name} (Fig. 5)",
      Seq("config", "tmfg", "apsp", "bubble-tree", "hierarchy"),
      rows.map(r => Seq(r.config, TableFmt.secs(r.tmfg), TableFmt.secs(r.apsp),
        TableFmt.secs(r.bubble), TableFmt.secs(r.hierarchy))).toSeq)
    rows.toSeq
  }

  // ---------------------------------------------------------------- T4

  final case class T4Row(id: Int, prefix: Int, ari: Double)

  /** Fig. 6: clustering quality (ARI) vs prefix size per dataset. */
  def t4(): Seq[T4Row] = {
    val prefixes = Seq(1, 2, 5, 10, 30, 50, 200)
    val rows = for (sp <- Datasets.specs) yield {
      val ds = sp.generate()
      val (s, d) = Par.withThreads(maxThreads)(par => Methods.correlationInput(ds, par))
      prefixes.map { prefix =>
        val r = Par.withThreads(maxThreads)(par => Methods.parTdbht(s, d, prefix, sp.classes, par))
        T4Row(sp.id, prefix, Ari.ari(r.labels, ds.labels))
      }
    }
    TableFmt.print("T4: ARI vs prefix size (Fig. 6)",
      "id" +: prefixes.map(p => s"p=$p"),
      rows.map(r => r.head.id.toString +: r.map(x => TableFmt.f(x.ari))))
    rows.flatten
  }

  // ---------------------------------------------------------------- T5

  final case class T5Row(id: Int, prefix: Int, ratioVsExact: Double, ratioVsPmfg: Option[Double])

  /** Fig. 7 + §VII-B: edge-weight-sum ratio of prefix-p TMFG vs the exact
    * TMFG (prefix 1), and vs the PMFG where the PMFG is feasible.
    */
  def t5(): Seq[T5Row] = {
    val prefixes = Seq(2, 5, 10, 30, 50, 200)
    val rows = for (sp <- Datasets.specs) yield {
      val ds = sp.generate()
      val (s, _) = Par.withThreads(maxThreads)(par => Methods.correlationInput(ds, par))
      val exact = Par.withThreads(maxThreads)(par => Tmfg.build(s, 1, par)).graph.totalWeight(s)
      val pmfgW = if (sp.n <= Datasets.pmfgMaxN) Some(Pmfg.build(s).totalWeight(s)) else None
      prefixes.map { prefix =>
        val w = Par.withThreads(maxThreads)(par => Tmfg.build(s, prefix, par)).graph.totalWeight(s)
        T5Row(sp.id, prefix, w / exact, pmfgW.map(w / _))
      }
    }
    TableFmt.print("T5: edge-weight-sum ratio vs exact TMFG (Fig. 7)",
      "id" +: prefixes.map(p => s"p=$p") :+ "PMFG-ratio(p=10)",
      rows.map { r =>
        val p10 = r.find(_.prefix == 10).flatMap(_.ratioVsPmfg)
        r.head.id.toString +: r.map(x => TableFmt.f(x.ratioVsExact)) :+
          p10.map(TableFmt.f(_)).getOrElse("-")
      })
    rows.flatten
  }

  // ---------------------------------------------------------------- T6

  final case class T6Row(id: Int, method: String, ari: Double)

  /** Fig. 8: ARI of every method per dataset. K-MEANS-S sweeps beta and
    * reports the best, as the paper does.
    */
  def t6(): Seq[T6Row] = {
    val rows = for (sp <- Datasets.specs) yield {
      val ds = sp.generate()
      val (s, d) = Par.withThreads(maxThreads)(par => Methods.correlationInput(ds, par))
      val k = sp.classes
      def score(labels: Array[Int]): Double = Ari.ari(labels, ds.labels)
      val out = collection.mutable.LinkedHashMap[String, Double]()
      out("PMFG-DBHT") =
        if (sp.n <= Datasets.pmfgMaxN) score(Methods.pmfgDbht(s, d, k).labels) else Double.NaN
      out("PAR-TDBHT-1") = score(
        Par.withThreads(maxThreads)(par => Methods.parTdbht(s, d, 1, k, par)).labels)
      out("PAR-TDBHT-10") = score(
        Par.withThreads(maxThreads)(par => Methods.parTdbht(s, d, 10, k, par)).labels)
      out("COMP") = score(Methods.hacBaseline(d, k, Linkage.Complete).labels)
      out("AVG") = score(Methods.hacBaseline(d, k, Linkage.Average).labels)
      out("K-MEANS") = score(
        Par.withThreads(maxThreads)(par => Methods.kmeans(ds.data, k, par)._1))
      out("K-MEANS-S") = Seq(10, 20, 40, 80).filter(_ < sp.n).map { b =>
        score(Par.withThreads(maxThreads)(par => Methods.kmeansSpectral(ds.data, k, b, par)._1))
      }.max
      out.map { case (m, a) => T6Row(sp.id, m, a) }.toSeq
    }
    val methods = rows.head.map(_.method)
    TableFmt.print("T6: ARI per method per dataset (Fig. 8)",
      "id" +: methods,
      rows.map(r => r.head.id.toString +: r.map(x =>
        if (x.ari.isNaN) "timeout" else TableFmt.f(x.ari))))
    rows.flatten
  }

  // ---------------------------------------------------------------- T7

  final case class T7Row(id: Int, beta: Int, ari: Double)

  /** Fig. 9: K-MEANS-S sensitivity to beta. */
  def t7(): Seq[T7Row] = {
    val betas = Seq(5, 10, 15, 20, 30, 40, 60, 80, 120)
    val rows = for (sp <- Seq(6, 11, 15, 17).map(Datasets.byId)) yield {
      val ds = sp.generate()
      betas.filter(_ < sp.n).map { b =>
        val labels = Par.withThreads(maxThreads)(par =>
          Methods.kmeansSpectral(ds.data, sp.classes, b, par)._1)
        T7Row(sp.id, b, Ari.ari(labels, ds.labels))
      }
    }
    TableFmt.print("T7: K-MEANS-S ARI vs beta (Fig. 9)",
      "id" +: betas.map(b => s"b=$b") :+ "range",
      rows.map { r =>
        val byBeta = betas.map(b => r.find(_.beta == b).map(x => TableFmt.f(x.ari)).getOrElse("-"))
        val aris = r.map(_.ari)
        r.head.id.toString +: byBeta :+ TableFmt.f(aris.max - aris.min)
      })
    rows.flatten
  }

  // ---------------------------------------------------------------- T8

  final case class T8Result(ariPrefix30: Double, ariPrefix1: Double,
                            contingency: Array[Array[Long]])

  /** Fig. 10-11 + §VII-B stock example: synthetic sector-factor stock
    * panel, spectral embedding preprocessing (as the paper does), then
    * PAR-TDBHT with prefix 30 vs the exact TMFG (prefix 1).
    */
  def t8(): T8Result = {
    val sectors = 11
    val ds = TimeSeriesGen.stocks(800, sectors, 504)
    val (p30, p1, table) = Par.withThreads(maxThreads) { par =>
      val emb = repro.cluster.Spectral.embed(ds.data, 40, sectors, par)
      val s = Correlation.pearson(emb, par)
      val d = Correlation.dissimilarity(s, par)
      val r30 = Methods.parTdbht(s, d, 30, sectors, par)
      val r1  = Methods.parTdbht(s, d, 1, sectors, par)
      val a30 = Ari.ari(r30.labels, ds.labels)
      val a1  = Ari.ari(r1.labels, ds.labels)
      val (tab, _, _) = Ari.contingency(r30.labels, ds.labels)
      (a30, a1, tab)
    }
    TableFmt.print("T8: stock clustering (Fig. 10, ARI 0.36 vs 0.28 in the paper)",
      Seq("method", "ARI"),
      Seq(Seq("PAR-TDBHT-30", TableFmt.f(p30)), Seq("PAR-TDBHT-1 (exact TMFG)", TableFmt.f(p1))))
    println("cluster x sector contingency (rows = clusters):")
    for (row <- table) println("  " + row.map(c => f"$c%4d").mkString(" "))
    T8Result(p30, p1, table)
  }
}
