package repro.tablebench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}
import repro.baselines.Fraudar
import repro.core.{EnsemFdet, EnsemParams, Fdet, FdetResult, SampleMethod, Sampling}
import repro.data.{FraudGraphGen, FraudSpec}
import repro.eval.Metrics

/** One benchmark run: `workload` with inputs made from `seed`, timed
  * detections for about `seconds`, traced or not. `sf` scales jd3; the
  * benchmark fixes it at 3 and only the smoke test makes it smaller.
  */
final case class Config(workload: String, seed: Long, seconds: Double, trace: Boolean, sf: Double = 3.0)

/** A reported value and its unit. */
final case class Metric(value: Double, unit: String)

/** What a run prints: counts of attempted and failed checked operations,
  * the metrics, the run's environment, its spans and any failed checks.
  */
final case class Result(
    attempted: Int,
    failed: Int,
    metrics: Map[String, Metric],
    env: Map[String, Any],
    spans: Seq[Tracer.Span],
    problems: Seq[String]) {
  def correct: Boolean = failed == 0 && problems.isEmpty
}

/** The Table III benchmark: EnsemFDet with RES sampling, and FRAUDAR at
  * K = 30, on jd3. One detection at a time in a closed loop.
  */
object Bench {

  val Workloads: Seq[String] = Seq("ensemble-res", "fraudar-k30")

  /** Untimed set-ups first: the first in a JVM pays seconds of JIT and code
    * generation, and the next is still a third slower than later ones.
    */
  val ColdSetups = 2

  /** Timed input set-ups per run; `setup_s` is their median. */
  val Setups = 7

  /** Untimed detections before the timed ones (JIT and Spark warm-up): at
    * least one per graph, and for at least WarmupS seconds.
    */
  val WarmupS = 3.0

  /** Timed detections per loop, whatever `seconds` says. */
  val MinTimed = 3

  /** Graphs a run detects on. FRAUDAR's time on one graph depends on the
    * blocks it happens to peel (20–25% between two seeds), so its figure is
    * the mean over a panel of graphs. The ensembles already average over 80
    * samples and use one.
    */
  def panelSize(workload: String): Int = if (workload == "fraudar-k30") 4 else 1

  /** The run's graphs: the first is made from the seed itself, the others
    * from seeds derived from it.
    */
  def panel(cfg: Config): Seq[FraudSpec] = Seq.tabulate(panelSize(cfg.workload)) { j =>
    FraudGraphGen.Jd3.scaled(cfg.sf).copy(seed = cfg.seed + j * 1000003L)
  }

  def run(spark: SparkSession, cfg: Config): Result = {
    require(Workloads.contains(cfg.workload),
      s"unknown workload ${cfg.workload}; expected one of ${Workloads.mkString(", ")}")
    val specs = panel(cfg)
    cfg.workload match {
      case "ensemble-res" => new Run(spark, cfg, specs, new Ensemble(spark, specs)).result()
      case "fraudar-k30"  => new Run(spark, cfg, specs, new FraudarK(spark, specs, 30)).result()
    }
  }

  /** One timed detection of graph `graph`. `out` is None when it threw. */
  private final case class Timed[R](
      graph: Int, traced: Boolean, seconds: Double, heapMb: Double, jitMs: Double, gcMs: Double,
      out: Option[R], window: Option[JobStats.Window])

  /** Mean over the graphs of each graph's median detection time. */
  private def panelSeconds(ts: Seq[Timed[_]]): Double = {
    val perGraph = ts.filter(_.out.isDefined).groupBy(_.graph).values.map(g => Noise.median(g.map(_.seconds)))
    perGraph.sum / perGraph.size
  }

  private[tablebench] final class Run[R](spark: SparkSession, cfg: Config, specs: Seq[FraudSpec], d: Detector[R]) {
    private val tracer = new Tracer
    private val problems = ArrayBuffer.empty[String]
    private var attempted = 0
    private var failed = 0
    private val reference = scala.collection.mutable.Map.empty[Int, String]

    def result(): Result = {
      val graphs = specs.length
      val calibBefore = Noise.calibrate()
      val cpu0 = Noise.cpuJiffies()

      (0 until ColdSetups).foreach(i => d.setup(i % graphs, new Tracer))
      val setups = (0 until math.max(Setups, graphs)).map { i =>
        val t0 = System.nanoTime()
        d.setup(i % graphs, tracer)
        (System.nanoTime() - t0) / 1e9
      }
      val setupS = Noise.median(setups)
      val edges = d.input(0).count()
      val blacklist = FraudGraphGen.blacklist(spark, specs.head).collect().map(_.getLong(0)).toSet
      val warm0 = System.nanoTime()
      var warmups = 0
      while (warmups < graphs || (System.nanoTime() - warm0) / 1e9 < WarmupS) {
        d.detect(warmups % graphs)
        warmups += 1
      }

      val timed =
        if (!cfg.trace) loop(None)
        else {
          val stats = JobStats.register(spark)
          try loop(Some(stats)) finally spark.sparkContext.removeSparkListener(stats)
        }
      val (traced, untraced) = timed.partition(_.traced)
      val first = untraced.filter(_.graph == 0).flatMap(_.out).headOption
        .getOrElse(throw new IllegalStateException(s"every detection failed: ${problems.mkString("; ")}"))
      val bestF1 = tracer.span("metrics.sweep")(d.bestF1(first, blacklist))

      val layers = if (cfg.trace) {
        val ofFirst = traced.filter(_.graph == 0)
        val last = ofFirst.flatMap(_.out).lastOption.getOrElse(first)
        val (m, checks) = d.profile(last, ofFirst.flatMap(_.window), tracer)
        checks.foreach { c =>
          attempted += 1
          check(c)
        }
        m
      } else Map.empty[String, Metric]

      val calibAfter = Noise.calibrate()
      val steal = Noise.stealFrac(cpu0, Noise.cpuJiffies())
      val detectS = panelSeconds(untraced)
      val noise = Map(
        "env.calib_s" -> Metric((calibBefore + calibAfter) / 2, "s"),
        "env.steal_frac" -> Metric(steal, "ratio"),
        "env.jit_ms" -> Metric(Noise.median(timed.map(_.jitMs)), "ms"),
        "env.gc_ms" -> Metric(Noise.median(timed.map(_.gcMs)), "ms"))

      val metrics =
        if (!cfg.trace) Map(
          "detect_s" -> Metric(detectS, "s"),
          "setup_s" -> Metric(setupS, "s"),
          "live_heap_mb" -> Metric(Noise.median(untraced.filter(_.out.isDefined).map(_.heapMb)), "MB"),
          "best_f1" -> Metric(bestF1, "ratio"),
          "ok_frac" -> Metric((attempted - failed).toDouble / attempted, "ratio"))
        else {
          val tracedS = panelSeconds(traced)
          layers ++ noise ++ Map(
            "data.gen_s" -> Metric(Noise.median(tracer.durations("data.gen")), "s"),
            "data.edges" -> Metric(edges.toDouble, "count"),
            "fraudar.collect_s" -> Metric(
              if (tracer.durations("fraudar.collect").isEmpty) 0.0
              else Noise.median(tracer.durations("fraudar.collect")), "s"),
            "metrics.sweep_s" -> Metric(tracer.seconds("metrics.sweep"), "s"),
            "trace.detect_s" -> Metric(tracedS, "s"),
            "trace.overhead_frac" -> Metric(tracedS / detectS - 1, "ratio"))
        }

      val env = Map[String, Any](
        "workload" -> cfg.workload,
        "seed" -> cfg.seed,
        "graph_seeds" -> specs.map(_.seed),
        "sf" -> cfg.sf,
        "input_edges" -> edges,
        "warmup_detections" -> warmups,
        "timed_detections" -> timed.length,
        "detect_s_each" -> timed.map(_.seconds),
        "graph_each" -> timed.map(_.graph),
        "traced_each" -> timed.map(_.traced),
        "jit_ms_each" -> timed.map(_.jitMs),
        "setup_s_each" -> setups,
        "calib_before_s" -> calibBefore,
        "calib_after_s" -> calibAfter) ++ noise.map { case (k, m) => k -> m.value } ++ Session.describe(spark)
      Result(attempted, failed, metrics, env, tracer.spans, problems.toSeq)
    }

    /** Closed loop over the graphs in turn, one detection at a time, until
      * `cfg.seconds` have passed, at least MinTimed slots and two rounds of
      * the panel have run, and the last round is whole. In a traced run each
      * slot is a pair of detections of the same graph, one traced and one
      * not, in an order that flips every round, so the tracing overhead is
      * measured under the same JIT and machine state.
      */
    private def loop(stats: Option[JobStats]): Seq[Timed[R]] = {
      val graphs = specs.length
      val out = ArrayBuffer.empty[Timed[R]]
      val start = System.nanoTime()
      var slot = 0
      while (slot < math.max(MinTimed, 2 * graphs) || slot % graphs != 0 ||
             (System.nanoTime() - start) / 1e9 < cfg.seconds) {
        val g = slot % graphs
        stats match {
          case None    => out += once(g, None)
          case Some(s) =>
            val order = if ((slot / graphs) % 2 == 0) Seq(None, Some(s)) else Seq(Some(s), None)
            order.foreach(o => out += once(g, o))
        }
        slot += 1
      }
      out.toSeq
    }

    /** One checked detection of graph `g`, traced when `stats` is given. A
      * full GC after it measures live heap with the result held and gives
      * every detection the same starting heap.
      */
    private def once(g: Int, stats: Option[JobStats]): Timed[R] = {
      val jit0 = Noise.jitMs
      val gc0 = Noise.gcMs
      val t0 = System.nanoTime()
      var thrown = ""
      val (r, w) = try {
        stats match {
          case None    => (Some(d.detect(g)), None)
          case Some(s) =>
            val (r, w) = s.record(tracer.span("detect")(d.detect(g)))
            (Some(r), Some(w))
        }
      } catch { case e: Exception => thrown = e.toString; (None, None) }
      // A traced detection is its span: the listener fence after it is not.
      val secs = if (stats.isEmpty) (System.nanoTime() - t0) / 1e9 else tracer.durations("detect").last
      val jit = (Noise.jitMs - jit0).toDouble
      val gc = (Noise.gcMs - gc0).toDouble
      val heap = Noise.liveHeapMb()
      attempted += 1
      check(r match {
        case None => Some(s"detection threw $thrown")
        case Some(x) =>
          val dg = d.digest(x)
          val ref = reference.getOrElseUpdate(g, dg)
          if (ref == dg) d.sanity(x) else Some(s"detection digest of graph $g differs from the run's first")
      })
      Timed(g, stats.isDefined, secs, heap, jit, gc, r, w)
    }

    private def check(problem: Option[String]): Unit = problem.foreach { p =>
      failed += 1
      problems += p
    }
  }

  /** A workload's inputs, detection, output checks and layer profile. Graph
    * `g` is the g-th graph of the run's panel; results passed to `bestF1`
    * and `profile` are of graph 0.
    */
  private[tablebench] abstract class Detector[R] {
    /** The cached, materialised input edges of graph `g`. */
    def input(g: Int): DataFrame
    /** Generate, cache and materialise graph `g`, replacing its last copy. */
    def setup(g: Int, tracer: Tracer): Unit
    /** One detection, from graph `g`'s cached input to a materialised result. */
    def detect(g: Int): R
    def digest(r: R): String
    /** A structural check of one result; None when it holds. */
    def sanity(r: R): Option[String]
    def bestF1(r: R, blacklist: Set[Long]): Double
    /** Per-layer metrics, and the outcome of each layer check (None = passed). */
    def profile(r: R, windows: Seq[JobStats.Window], tracer: Tracer): (Map[String, Metric], Seq[Option[String]])

    protected def generate(spark: SparkSession, spec: FraudSpec, tracer: Tracer): DataFrame =
      tracer.span("data.gen") {
        val e = FraudGraphGen.edges(spark, spec).cache()
        e.count()
        e
      }
  }

  /** EnsemFDet with RES sampling on each graph, with the graph's seed as
    * `EnsemParams.seed`.
    */
  private[tablebench] final class Ensemble(spark: SparkSession, specs: Seq[FraudSpec])
      extends Detector[IndexedSeq[Checks.Vote]] {
    private val params = specs.map(s =>
      EnsemParams(SampleMethod.RES, n = 80, s = 0.1, t = 1, maxBlocks = 30, truncate = true, seed = s.seed))
    private val p = params.head
    private val edges = new Array[DataFrame](specs.length)

    def input(g: Int): DataFrame = edges(g)

    def setup(g: Int, tracer: Tracer): Unit = {
      if (edges(g) != null) edges(g).unpersist(blocking = true)
      edges(g) = generate(spark, specs(g), tracer)
    }

    def detect(g: Int): IndexedSeq[Checks.Vote] =
      Checks.sortedVotes(EnsemFdet.votes(spark, edges(g), params(g)).collect())

    def digest(v: IndexedSeq[Checks.Vote]): String = Checks.digest(v)

    def sanity(v: IndexedSeq[Checks.Vote]): Option[String] =
      v.find { case (s, _, n) => (s != "u" && s != "v") || n < 1 || n > p.n }
        .map(row => s"vote row out of range: $row")
        .orElse(if (v.isEmpty) Some("empty vote table") else None)

    def bestF1(v: IndexedSeq[Checks.Vote], blacklist: Set[Long]): Double = {
      val users = v.collect { case ("u", id, n) => (id, n) }
      Metrics.bestF1(Metrics.voteSweep(users, blacklist)).prf.f1
    }

    def profile(
        v: IndexedSeq[Checks.Vote], windows: Seq[JobStats.Window], tracer: Tracer
    ): (Map[String, Metric], Seq[Option[String]]) = {
      val stats = JobStats.register(spark)
      val sampling = try (1 to 3).map(_ => stats.record(tracer.span("sampling")(sampled.count())))
      finally spark.sparkContext.removeSparkListener(stats)
      val maxSample = sampled.groupBy("sid").count().agg(F.max("count")).head().getLong(0)

      val samples = sampled.select("sid", "u", "v").collect()
        .groupBy(_.getInt(0)).toSeq.sortBy(_._1)
        .map { case (_, rows) => rows.map(r => (r.getLong(1), r.getLong(2))) }
      // Each sample's replay runs right after its Fdet.run, so both see the
      // same JIT and heap state and fdet.self_s compares like with like.
      val (results, replays) = samples.map { es =>
        val r = tracer.span("fdet.run")(Fdet.run(es, maxBlocks = p.maxBlocks, elbowPatience = Some(3)))
        (r, Checks.replay(es, r, tracer))
      }.unzip
      val oracle = Checks.firstDifference(Checks.oracleVotes(results, p.truncate), v)
        .map(d => s"votes differ from the sequential oracle: $d")

      val kernel = windows.map(_.stageTaskSeconds("MapGroups"))
      def med(f: JobStats.Window => Double) = Noise.median(windows.map(f))
      val detectS = Noise.median(tracer.durations("detect"))
      val cores = spark.sparkContext.defaultParallelism
      val p50 = Noise.median(kernel.map(ts => Noise.median(ts)))
      val max = Noise.median(kernel.map(_.max))
      val m = Map(
        "sampling.s" -> Metric(Noise.median(tracer.durations("sampling")), "s"),
        "sampling.rows" -> Metric(sampling.head._1.toDouble, "count"),
        "sampling.max_sample_rows" -> Metric(maxSample.toDouble, "count"),
        "sampling.shuffle_write_mb" -> Metric(Noise.median(sampling.map(_._2.shuffleWriteMb)), "MB"),
        "ensemfdet.tasks" -> Metric(Noise.median(windows.map(_.tasks.length.toDouble)), "count"),
        "ensemfdet.shuffle_write_mb" -> Metric(med(_.shuffleWriteMb), "MB"),
        "ensemfdet.fetch_wait_s" -> Metric(med(_.fetchWaitS), "s"),
        "ensemfdet.executor_run_s" -> Metric(med(_.runS), "s"),
        "ensemfdet.executor_cpu_s" -> Metric(med(_.cpuS), "s"),
        "ensemfdet.gc_s" -> Metric(med(_.gcS), "s"),
        "ensemfdet.spill_mb" -> Metric(med(_.spillMb), "MB"),
        "ensemfdet.kernel_task_p50_s" -> Metric(p50, "s"),
        "ensemfdet.kernel_task_max_s" -> Metric(max, "s"),
        "ensemfdet.kernel_task_skew" -> Metric(Noise.median(kernel.map(ts => ts.max / Noise.median(ts))), "ratio"),
        "ensemfdet.parallel_eff" -> Metric(med(_.cpuS) / (detectS * cores), "ratio"),
        "ensemfdet.vote_rows" -> Metric(v.length.toDouble, "count"))
      (m ++ kernelMetrics(results, replays, tracer), Seq(oracle) ++ replays.map(_.mismatch))
    }

    private def sampled: DataFrame = Sampling(p.method, edges(0), p.n, p.s, p.seed)
  }

  /** FRAUDAR at K = `k` on each graph's edges, collected to the driver. */
  private final class FraudarK(spark: SparkSession, specs: Seq[FraudSpec], k: Int) extends Detector[FdetResult] {
    private val edges = new Array[DataFrame](specs.length)
    private val local = new Array[Array[(Long, Long)]](specs.length)

    def input(g: Int): DataFrame = edges(g)

    def setup(g: Int, tracer: Tracer): Unit = {
      if (edges(g) != null) edges(g).unpersist(blocking = true)
      edges(g) = generate(spark, specs(g), tracer)
      local(g) = tracer.span("fraudar.collect")(Fraudar.collectEdges(edges(g)))
    }

    def detect(g: Int): FdetResult = Fraudar.run(local(g), k)

    def digest(r: FdetResult): String = Checks.digest(r)

    def sanity(r: FdetResult): Option[String] =
      if (r.blocks.isEmpty || r.blocks.length > k) Some(s"${r.blocks.length} blocks, expected 1 to $k")
      else if (r.kHat < 1 || r.kHat > k) Some(s"k̂ = ${r.kHat} out of range")
      else None

    def bestF1(r: FdetResult, blacklist: Set[Long]): Double =
      Fraudar.cumulativeUserSets(r).map(s => Metrics.prfLocal(s, blacklist).f1).max

    def profile(
        r: FdetResult, windows: Seq[JobStats.Window], tracer: Tracer
    ): (Map[String, Metric], Seq[Option[String]]) = {
      val rerun = tracer.span("fdet.run")(Fdet.run(local(0), maxBlocks = k, elbowPatience = None))
      val replay = Checks.replay(local(0), rerun, tracer)
      val notRun = Seq(
        "sampling.s" -> "s", "sampling.rows" -> "count", "sampling.max_sample_rows" -> "count",
        "sampling.shuffle_write_mb" -> "MB", "ensemfdet.tasks" -> "count",
        "ensemfdet.shuffle_write_mb" -> "MB", "ensemfdet.fetch_wait_s" -> "s",
        "ensemfdet.executor_run_s" -> "s", "ensemfdet.executor_cpu_s" -> "s", "ensemfdet.gc_s" -> "s",
        "ensemfdet.spill_mb" -> "MB", "ensemfdet.kernel_task_p50_s" -> "s",
        "ensemfdet.kernel_task_max_s" -> "s", "ensemfdet.kernel_task_skew" -> "ratio",
        "ensemfdet.parallel_eff" -> "ratio", "ensemfdet.vote_rows" -> "count"
      ).map { case (n, u) => n -> Metric(0.0, u) }
      (notRun.toMap ++ kernelMetrics(Seq(rerun), Seq(replay), tracer), Seq(replay.mismatch))
    }
  }

  /** FDET-level metrics from driver-side `Fdet.run` calls and their replays. */
  private def kernelMetrics(
      results: Seq[FdetResult], replays: Seq[Checks.Replay], tracer: Tracer): Map[String, Metric] = {
    val runs = tracer.durations("fdet.run")
    val build = tracer.seconds("localgraph.build")
    val weights = tracer.seconds("density.weights")
    val peel = tracer.seconds("peeling.peel")
    Map(
      "fdet.run_s" -> Metric(runs.sum, "s"),
      "fdet.run_ms_p50" -> Metric(Noise.median(runs) * 1e3, "ms"),
      "fdet.run_ms_max" -> Metric(runs.max * 1e3, "ms"),
      "fdet.rounds" -> Metric(results.map(_.blocks.length).sum.toDouble, "count"),
      "fdet.khat_max" -> Metric(results.map(_.kHat).max.toDouble, "count"),
      "fdet.self_s" -> Metric(runs.sum - build - weights - peel, "s"),
      "localgraph.build_s" -> Metric(build, "s"),
      "localgraph.edges_in" -> Metric(replays.map(_.edgesIn).sum.toDouble, "count"),
      "density.weights_s" -> Metric(weights, "s"),
      "peeling.peel_s" -> Metric(peel, "s"),
      "peeling.nodes" -> Metric(replays.map(_.nodes).sum.toDouble, "count"),
      "peeling.phi_rel_err_max" -> Metric(replays.map(_.phiRelErrMax).max, "ratio"))
  }
}
