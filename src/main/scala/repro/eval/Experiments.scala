package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{FBox, Fraudar, SparseSvd, Spoken}
import repro.core.{EnsemFdet, EnsemParams, LocalGraph, SampleMethod}
import repro.data.{FraudGraphGen, FraudSpec}
import repro.eval.Metrics.{PrPoint, Prf}

/** The paper's experiments (Section V), shared by the `Jobs` entrypoint and the
  * `bench/` suites. Each function returns typed rows; `render*` turns them
  * into the text tables recorded in EXPERIMENTS.md.
  */
object Experiments {

  /** Default bench scale: 1/100 of the paper's Table I sizes (DESIGN.md §3). */
  val DefaultSf = 1.0

  /** One generated dataset, cached for the duration of a `withDataset` body. */
  final class Loaded private[Experiments] (
      spark: SparkSession, val spec: FraudSpec, val edges: DataFrame) {

    /** Ground-truth fraud PINs, collected on first use. */
    lazy val blacklist: Set[Long] =
      FraudGraphGen.blacklist(spark, spec).collect().map(_.getLong(0)).toSet

    /** The edges collected to the driver, for the sequential baselines. */
    lazy val local: Array[(Long, Long)] = Fraudar.collectEdges(edges)

    /** EnsemFDet's PR curve over the voting threshold T for `p`, sampled with this dataset's seed. */
    def voteCurve(p: EnsemParams): Seq[PrPoint] = curve(EnsemFdet.votes(spark, edges, p.copy(seed = spec.seed)))

    /** The PR curve over T of a vote table on this dataset. */
    def curve(votes: DataFrame): Seq[PrPoint] = Metrics.voteSweep(Metrics.collectUserVotes(votes), blacklist)

    /** The best-F1 point of EnsemFDet under each labelled setting. */
    def bestOf(cases: Seq[(String, EnsemParams)]): Seq[MethodRow] =
      cases.map { case (label, p) => MethodRow(spec.name, label, Metrics.bestF1(voteCurve(p))) }
  }

  /** Generates `spec`'s edges, caches and materializes them (so generation
    * is billed to no measurement in `body`), runs `body`, and unpersists the
    * edges even when `body` throws.
    */
  def withDataset[A](spark: SparkSession, spec: FraudSpec)(body: Loaded => A): A = {
    val edges = FraudGraphGen.edges(spark, spec).cache()
    try {
      edges.count()
      body(new Loaded(spark, spec, edges))
    } finally edges.unpersist()
  }

  /** `withDataset` on dataset #3, where Figures 5–9 are measured. */
  def onJd3[A](spark: SparkSession, sf: Double)(body: Loaded => A): A =
    withDataset(spark, FraudGraphGen.Jd3.scaled(sf))(body)

  // ---------------------------------------------------------------- Table I

  final case class DatasetStats(
      name: String, pins: Long, fraudPins: Long, merchants: Long, edges: Long)

  /** Table I analog: statistics of the generated datasets. PIN/merchant
    * counts are nodes that actually appear in the graph.
    */
  def tableI(spark: SparkSession, sf: Double = DefaultSf): Seq[DatasetStats] =
    FraudGraphGen.all.map { spec =>
      withDataset(spark, spec.scaled(sf)) { d =>
        DatasetStats(
          d.spec.name,
          pins = d.edges.select("u").distinct().count(),
          fraudPins = d.blacklist.size.toLong,
          merchants = d.edges.select("v").distinct().count(),
          edges = d.edges.count())
      }
    }

  def renderTableI(rows: Seq[DatasetStats]): String =
    table(
      Seq("Dataset#", "Node:PIN", "Fraud PIN", "Node:Merchant", "Edge"),
      rows.map(r => Seq(r.name, r.pins.toString, r.fraudPins.toString,
        r.merchants.toString, r.edges.toString)))

  // -------------------------------------------------------------- Table III

  final case class TimingRow(
      name: String, ensemSec: Double, fraudarSec: Double) {
    def speedup: Double = if (ensemSec > 0) fraudarSec / ensemSec else 0.0
  }

  /** Table III analog: wall-clock of EnsemFDet (S=0.1, N=80, RES, truncated)
    * vs FRAUDAR (K fixed at 30, sequential) on the three datasets. Run at
    * sf=100 this is the paper's actual Table I scale (1M/2.8M/8M edges). A
    * cheap warm-up (a small-N ensemble, a 3-block FRAUDAR) precedes each
    * measurement so JIT/Spark job setup is not billed to either side; each
    * reported number is the median of `reps` runs.
    */
  def tableIII(
      spark: SparkSession,
      sf: Double = DefaultSf,
      n: Int = 80,
      s: Double = 0.1,
      kFraudar: Int = 30,
      reps: Int = 3): Seq[TimingRow] =
    FraudGraphGen.all.map { spec =>
      withDataset(spark, spec.scaled(sf)) { d =>
        val p = EnsemParams(SampleMethod.RES, n = n, s = s, t = 1, seed = d.spec.seed)

        def ensemOnce(nRun: Int): Long =
          EnsemFdet.votes(spark, d.edges, p.copy(n = nRun)).count()
        ensemOnce(math.min(8, n)) // warm-up
        val ensemSec = medianSec(reps)(ensemOnce(n))

        Fraudar.run(d.local, 3) // warm-up (JIT)
        val fraudarSec = medianSec(reps)(Fraudar.run(d.local, kFraudar))

        TimingRow(d.spec.name, ensemSec, fraudarSec)
      }
    }

  /** Median wall-clock seconds over `reps` evaluations of `f`. */
  private def medianSec(reps: Int)(f: => Any): Double = {
    require(reps >= 1)
    val ts = Seq.fill(reps) {
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e9
    }.sorted
    ts(reps / 2)
  }

  def renderTableIII(rows: Seq[TimingRow]): String =
    table(
      Seq("", "Dataset #1", "Dataset #2", "Dataset #3"),
      Seq(
        "EnsemFDet" +: rows.map(r => f"${r.ensemSec}%.3f sec"),
        "FRAUDAR" +: rows.map(r => f"${r.fraudarSec}%.3f sec"),
        "speedup" +: rows.map(r => f"${r.speedup}%.1fx")))

  // ------------------------------------------------- Figure 3/4: all methods

  /** A labelled best-F1 point: a method, sampler or setting on one dataset. */
  final case class MethodRow(dataset: String, method: String, best: PrPoint)

  /** Best-F1 operating point of every comparison method on every dataset —
    * the scalar summary of the Figure 3/4 curves.
    */
  def methodComparison(
      spark: SparkSession,
      sf: Double = DefaultSf,
      n: Int = 80,
      s: Double = 0.1): Seq[MethodRow] =
    FraudGraphGen.all.flatMap { spec =>
      withDataset(spark, spec.scaled(sf)) { d =>
        val black = d.blacklist
        val fraudar = Fraudar.cumulativeUserSets(Fraudar.run(d.local, 30)).zipWithIndex
          .map { case (set, i) => PrPoint(i + 1.0, Metrics.prfLocal(set, black)) }
        val g = LocalGraph.fromEdges(d.local)
        val svd = SparseSvd.compute(g, SparseSvd.DefaultComponents)
        val spoken = Metrics.scoreSweep(Spoken.userScores(g, svd), black)
        val fbox = Metrics.scoreSweep(FBox.userScores(g, svd), black)

        d.bestOf(Seq("EnsemFDet" -> EnsemParams(SampleMethod.RES, n = n, s = s))) ++ Seq(
          MethodRow(d.spec.name, "FRAUDAR", Metrics.bestF1(fraudar)),
          MethodRow(d.spec.name, "SPOKEN", Metrics.bestF1(spoken)),
          MethodRow(d.spec.name, "FBOX", Metrics.bestF1(fbox)))
      }
    }

  def renderMethodRows(rows: Seq[MethodRow]): String =
    table(
      Seq("Dataset", "Method", "best F1", "Precision", "Recall", "#detected"),
      rows.map(r => Seq(r.dataset, r.method) ++ prfCells(r.best.prf)))

  // ------------------------------------------------ Figure 5: sampling methods

  /** Best-F1 per sampling method on dataset #3 with S = 0.1, R = 8 (N = 80),
    * the Figure 5 setting.
    */
  def samplingComparison(
      spark: SparkSession,
      sf: Double = DefaultSf,
      n: Int = 80,
      s: Double = 0.1): Seq[MethodRow] =
    onJd3(spark, sf)(_.bestOf(SampleMethod.all.map(m => m.name -> EnsemParams(m, n = n, s = s))))

  // --------------------------------------------- Figure 6: truncation vs FIX-K

  final case class TruncationRow(
      variant: String, best: PrPoint, blocksPerSample: Seq[Int])

  /** EnsemFDet (truncating point) vs EnsemFDet-FIX-K (k = 30) on dataset #3;
    * also reports k̂ of each of the N samples the truncated variant votes on,
    * in sid order (the paper records all of them < 15), read from the rows
    * its votes come from, so each variant runs its N FDETs once.
    */
  def truncationComparison(
      spark: SparkSession,
      sf: Double = DefaultSf,
      n: Int = 80,
      s: Double = 0.1,
      fixK: Int = 30): Seq[TruncationRow] =
    onJd3(spark, sf) { d =>
      val truncated = EnsemParams(SampleMethod.RES, n = n, s = s, maxBlocks = fixK, seed = d.spec.seed)
      val samples = EnsemFdet.perSample(d.edges, truncated).cache()
      try {
        val best = Metrics.bestF1(d.curve(EnsemFdet.votes(samples)))
        val kHats = samples.collect().sortBy(_.sid).map(_.kHat).toSeq
        Seq(
          TruncationRow("EnsemFDet (truncated)", best, kHats),
          TruncationRow(s"EnsemFDet-FIX-K (k=$fixK)",
            Metrics.bestF1(d.voteCurve(truncated.copy(truncate = false))), Seq.empty))
      } finally samples.unpersist()
    }

  def renderTruncationRows(rows: Seq[TruncationRow]): String =
    table(
      Seq("Variant", "best F1", "Precision", "Recall", "#detected", "k̂ per sample"),
      rows.map(r => (r.variant +: prfCells(r.best.prf)) :+
        (if (r.blocksPerSample.isEmpty) "-" else r.blocksPerSample.mkString(","))))

  // ------------------------------------------------- Figures 7–9: N, S, T

  /** Figure 7: fix S = 0.1, vary N ∈ {10, 20, 40, 80}. Figures 7–9 take
    * dataset #3 loaded (`onJd3`), so they can share one generation.
    */
  def sweepN(d: Loaded, ns: Seq[Int] = Seq(10, 20, 40, 80)): Seq[MethodRow] =
    d.bestOf(ns.map(n => s"N=$n" -> EnsemParams(SampleMethod.RES, n = n, s = 0.1)))

  /** Figure 8: fix R = S × N = 1, vary S ∈ {0.01, 0.05, 0.1}. */
  def sweepS(d: Loaded, ss: Seq[Double] = Seq(0.01, 0.05, 0.1)): Seq[MethodRow] =
    d.bestOf(ss.map { s =>
      val n = math.max(1, math.round(1.0 / s).toInt)
      f"S=$s%.2f,N=$n" -> EnsemParams(SampleMethod.RES, n = n, s = s)
    })

  /** Figure 9: the full T sweep at S = 0.1, N = 80; precision rises and recall falls with T. */
  def sweepT(d: Loaded, n: Int = 80, s: Double = 0.1): Seq[PrPoint] =
    d.voteCurve(EnsemParams(SampleMethod.RES, n = n, s = s))

  /** The rows of one dataset, labelled under `header` (no dataset column). */
  def renderSweepRows(header: String, rows: Seq[MethodRow]): String =
    table(
      Seq(header, "best F1", "Precision", "Recall", "#detected"),
      rows.map(r => r.method +: prfCells(r.best.prf)))

  def renderTRows(rows: Seq[PrPoint]): String =
    table(
      Seq("T", "F1", "Precision", "Recall", "#detected"),
      rows.map(r => r.threshold.toLong.toString +: prfCells(r.prf)))

  // ------------------------------------------------------------------ misc

  /** F1, precision, recall and detected count of one operating point. */
  private def prfCells(p: Prf): Seq[String] =
    Seq(f"${p.f1}%.3f", f"${p.precision}%.3f", f"${p.recall}%.3f", p.detected.toString)

  /** Fixed-width text table (markdown-compatible). */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (fmt(header) +: sep +: rows.map(fmt)).mkString("\n")
  }
}
