package repro.tablebench

import java.lang.management.ManagementFactory
import java.util.Properties

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Spans recorded in memory around the benchmark's calls into the program.
  * Single-threaded: every span is opened and closed on the driver thread.
  */
final class Tracer {
  import Tracer.Span

  private val done = ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var nextId = 0
  private val origin = System.nanoTime()

  /** Time `f` as a span named `name`, child of the innermost open span. */
  def span[A](name: String)(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try f
    finally {
      done += Span(id, parent, name, t0 - origin, System.nanoTime() - origin)
      open = open.tail
    }
  }

  /** Durations in seconds of every closed span named `name`. */
  def durations(name: String): Seq[Double] = done.iterator.filter(_.name == name).map(_.seconds).toSeq

  /** Total seconds spent in spans named `name`. */
  def seconds(name: String): Double = durations(name).sum

  def spans: Seq[Span] = done.toSeq
}

object Tracer {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }
}

/** Task metrics of the Spark jobs run inside one `record` window, read from
  * a SparkListener the benchmark registers. Jobs are matched by job group.
  */
final class JobStats private (spark: SparkSession) extends SparkListener {
  import JobStats._

  private val lock = new Object
  private var group: String = null
  private val groupOfJob = mutable.Map.empty[Int, String]
  private val endedGroups = mutable.Set.empty[String]
  private val stages = mutable.Set.empty[Int]
  private val scopes = mutable.Map.empty[Int, Seq[String]]
  private val tasks = ArrayBuffer.empty[Task]
  private var windows = 0

  private def groupOf(p: Properties): String =
    Option(p).map(_.getProperty("spark.jobGroup.id")).orNull

  override def onJobStart(e: SparkListenerJobStart): Unit = lock.synchronized {
    val g = groupOf(e.properties)
    groupOfJob(e.jobId) = g
    if (g != null && g == group) {
      stages ++= e.stageIds
      e.stageInfos.foreach(si => scopes(si.stageId) = scopeNames(si))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = lock.synchronized {
    groupOfJob.remove(e.jobId).foreach(g => if (g != null) endedGroups += g)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = lock.synchronized {
    val m = e.taskMetrics
    if (stages(e.stageId) && m != null) tasks += Task(
      stageId = e.stageId,
      runMs = m.executorRunTime,
      cpuNs = m.executorCpuTime,
      gcMs = m.jvmGCTime,
      shuffleWriteBytes = m.shuffleWriteMetrics.bytesWritten,
      fetchWaitMs = m.shuffleReadMetrics.fetchWaitTime,
      spillBytes = m.diskBytesSpilled)
  }

  /** Run `f` and return its result with the task metrics of the jobs it ran. */
  def record[A](f: => A): (A, Window) = {
    val sc = spark.sparkContext
    val label = lock.synchronized {
      windows += 1
      group = s"tablebench-$windows"
      stages.clear(); scopes.clear(); tasks.clear()
      group
    }
    sc.setJobGroup(label, label, interruptOnCancel = false)
    val out = try f finally sc.clearJobGroup()
    // The listener bus delivers events in order: once a later job has ended,
    // every event of the recorded jobs has been seen.
    val fence = s"$label-fence"
    sc.setJobGroup(fence, fence, interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (lock.synchronized(!endedGroups(fence)) && System.nanoTime() < deadline) Thread.sleep(2)
    lock.synchronized {
      require(endedGroups(fence), "Spark listener events did not arrive")
      group = null
      (out, Window(tasks.toVector, scopes.toMap))
    }
  }
}

object JobStats {

  final case class Task(
      stageId: Int, runMs: Long, cpuNs: Long, gcMs: Long,
      shuffleWriteBytes: Long, fetchWaitMs: Long, spillBytes: Long)

  /** Tasks of one recorded window, with the operator scopes of each stage. */
  final case class Window(tasks: Vector[Task], stageScopes: Map[Int, Seq[String]]) {
    def shuffleWriteMb: Double = tasks.map(_.shuffleWriteBytes).sum / 1048576.0
    def fetchWaitS: Double = tasks.map(_.fetchWaitMs).sum / 1e3
    def runS: Double = tasks.map(_.runMs).sum / 1e3
    def cpuS: Double = tasks.map(_.cpuNs).sum / 1e9
    def gcS: Double = tasks.map(_.gcMs).sum / 1e3
    def spillMb: Double = tasks.map(_.spillBytes).sum / 1048576.0

    /** Run times in seconds of the tasks of stages running operator `op`. */
    def stageTaskSeconds(op: String): Seq[Double] = {
      val ids = stageScopes.collect { case (id, ops) if ops.exists(_.startsWith(op)) => id }.toSet
      tasks.filter(t => ids(t.stageId)).map(_.runMs / 1e3)
    }
  }

  def register(spark: SparkSession): JobStats = {
    val s = new JobStats(spark)
    spark.sparkContext.addSparkListener(s)
    s
  }

  /** Physical-operator names (RDD operation scopes) of a stage's RDDs. The
    * scope type is Spark-internal, so it is read reflectively.
    */
  private def scopeNames(si: StageInfo): Seq[String] =
    si.rddInfos.flatMap { r =>
      try r.getClass.getMethod("scope").invoke(r) match {
        case Some(s: AnyRef) => Some(s.getClass.getMethod("name").invoke(s).toString)
        case _               => None
      } catch { case _: ReflectiveOperationException => None }
    }
}

/** Measurements that explain run-to-run spread rather than the program. */
object Noise {

  private val calibWords = 1 << 23 // 32 MiB of ints: larger than the caches
  private lazy val calibArray = new Array[Int](calibWords)

  /** Seconds for a fixed pseudo-random read-modify-write walk over 32 MiB;
    * the median of three walks.
    */
  def calibrate(): Double = {
    val a = calibArray
    val times = Seq.fill(3) {
      val t0 = System.nanoTime()
      var x = 12345L
      var i = 0
      while (i < 4000000) {
        x = x * 6364136223846793005L + 1442695040888963407L
        val k = ((x >>> 33) & (calibWords - 1)).toInt
        a(k) += 1
        i += 1
      }
      (System.nanoTime() - t0) / 1e9
    }
    median(times)
  }

  /** Aggregate CPU jiffies from /proc/stat (user .. steal), if readable. */
  def cpuJiffies(): Option[Array[Long]] =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try src.getLines().find(_.startsWith("cpu ")).map(
        _.trim.split("\\s+").slice(1, 9).map(_.toLong))
      finally src.close()
    } catch { case _: java.io.IOException => None }

  /** Share of CPU time stolen by the host between two /proc/stat samples. */
  def stealFrac(a: Option[Array[Long]], b: Option[Array[Long]]): Double =
    (for (x <- a; y <- b) yield {
      val d = y.zip(x).map { case (p, q) => p - q }
      if (d.sum > 0) d(7).toDouble / d.sum else 0.0
    }).getOrElse(0.0)

  def jitMs: Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Heap in use after a full collection, in MB. */
  def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}
