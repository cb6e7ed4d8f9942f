package repro.tablebench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** Entry point:
  *   Main --workload W --seed N --seconds S --trace 0|1 [--work DIR]
  * Prints the run environment as one JSON line, then the result as the last
  * line, and writes both with the spans to DIR/results/. `tablebench/run.py`
  * builds the classpath and starts this with the benchmark's JVM flags.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "work")
    if (args.length % 2 != 0 || opts.size * 2 != args.length || !opts.keySet.subsetOf(known) ||
        !Seq("workload", "seed", "seconds", "trace").forall(opts.contains)) {
      System.err.println("usage: Main --workload W --seed N --seconds S --trace 0|1 [--work DIR]")
      sys.exit(2)
    }
    val cfg = Config(
      workload = opts("workload"),
      seed = opts("seed").toLong,
      seconds = opts("seconds").toDouble,
      trace = opts("trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      })
    val work = Paths.get(opts.getOrElse("work", ".bench_build/tablebench")).toAbsolutePath

    val spark = Session.create(work.toString)
    val r = try Bench.run(spark, cfg) finally spark.stop()

    val last = Json.obj(
      "correct" -> r.correct,
      "attempted" -> r.attempted,
      "failed" -> r.failed,
      "metrics" -> Json.Raw(Json.map(r.metrics.toSeq.sortBy(_._1).map { case (k, m) =>
        k -> Json.Raw(Json.obj("value" -> (if (m.unit == "count") m.value.toLong else m.value), "unit" -> m.unit))
      })))
    val results = work.resolve("results")
    Files.createDirectories(results)
    val file = results.resolve(s"${cfg.workload}-seed${cfg.seed}-trace${if (cfg.trace) 1 else 0}.json")
    val spans = r.spans.map(s => Json.Raw(Json.obj(
      "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs)))
    Files.write(file, Json.obj(
      "result" -> Json.Raw(last), "env" -> r.env, "problems" -> r.problems,
      "spans" -> spans).getBytes(StandardCharsets.UTF_8))
    r.problems.foreach(p => System.err.println(s"check failed: $p"))
    println(Json.obj("env" -> r.env, "problems" -> r.problems))
    println(last)
  }
}

/** The SparkSession every run uses, and the environment it records. */
object Session {

  /** Shuffle partitions: one per core, so the sid shuffle gives each core one
    * kernel task. Adaptive coalescing is off so the count stays fixed.
    */
  def create(work: String): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("tablebench")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .config("spark.sql.adaptive.coalescePartitions.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/warehouse")
      .getOrCreate()
  }

  /** The run's environment: Spark settings, JVM, versions and source identity
    * (the commit, dirty flag and src/ tree id come from run.py).
    */
  def describe(spark: SparkSession): Map[String, Any] = {
    val conf = spark.conf
    val rt = ManagementFactory.getRuntimeMXBean
    Map(
      "cores" -> Runtime.getRuntime.availableProcessors,
      "spark_master" -> spark.sparkContext.master,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "adaptive" -> conf.get("spark.sql.adaptive.enabled"),
      "adaptive_coalesce" -> conf.get("spark.sql.adaptive.coalescePartitions.enabled"),
      "spark_version" -> spark.version,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "jvm_flags" -> rt.getInputArguments.asScala.filterNot(_.startsWith("--add-opens")).toSeq,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).toSeq,
      "git_commit" -> sys.props.getOrElse("tablebench.commit", "unknown"),
      "git_dirty" -> sys.props.getOrElse("tablebench.dirty", "unknown"),
      "source_tree" -> sys.props.getOrElse("tablebench.tree", "unknown"))
  }
}

/** Minimal JSON writer for the result line and the results file. */
object Json {

  /** Already-rendered JSON. */
  final case class Raw(text: String)

  def obj(fields: (String, Any)*): String = map(fields)

  def map(fields: Iterable[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def value(v: Any): String = v match {
    case null                => "null"
    case Raw(t)              => t
    case s: String           => str(s)
    case b: Boolean          => b.toString
    case d: Double           => require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d"); d.toString
    case n: Number           => n.toString
    case m: Map[_, _]        => map(m.map { case (k, x) => k.toString -> x })
    case s: Iterable[_]      => s.map(value).mkString("[", ", ", "]")
    case other               => str(other.toString)
  }

  private def str(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
