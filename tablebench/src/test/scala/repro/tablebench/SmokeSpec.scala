package repro.tablebench

import java.io.File

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own smoke test, on a tiny jd3 (sf = 0.1): every workload
  * traced and untraced, the declared metrics and units, and the checks
  * rejecting corrupted outputs.
  */
class SmokeSpec extends AnyFunSuite {

  private lazy val spark: SparkSession = Session.create(new File("target/smoke").getAbsolutePath)
  private val Sf = 0.1

  /** name -> unit of the end-to-end and per-layer metrics BENCHMARK.json declares. */
  private val (endToEnd, perLayer) = {
    val root = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    def units(key: String) = root.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toMap
    (units("end_to_end"), units("per_layer"))
  }

  test("BENCHMARK.json names exactly the benchmark's workloads") {
    val root = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    assert(root.get("workloads").elements().asScala.map(_.get("name").asText).toSeq == Bench.Workloads)
  }

  for (w <- Bench.Workloads; trace <- Seq(false, true)) {
    test(s"$w ${if (trace) "traced" else "untraced"}: every declared metric with its unit, all checks passing") {
      val r = Bench.run(spark, Config(w, seed = 7, seconds = 0.5, trace = trace, sf = Sf))
      assert(r.problems.isEmpty)
      assert(r.correct && r.failed == 0 && r.attempted >= Bench.MinTimed)
      assert(r.metrics.map { case (k, m) => k -> m.unit } == (if (trace) perLayer else endToEnd))
      if (!trace) assert(r.metrics("ok_frac").value == 1.0)
      assert(r.metrics.values.forall(m => !m.value.isNaN && !m.value.isInfinite))
    }
  }

  test("a detection whose vote table differs from the run's first fails the digest check") {
    val cfg = Config("ensemble-res", 7, seconds = 0.5, trace = false, sf = Sf)
    val specs = Bench.panel(cfg)
    val real = new Bench.Ensemble(spark, specs)
    var calls = 0
    // Every second detection has one vote count changed.
    val corrupting = new Bench.Detector[IndexedSeq[Checks.Vote]] {
      def input(g: Int) = real.input(g)
      def setup(g: Int, t: Tracer): Unit = real.setup(g, t)
      def detect(g: Int): IndexedSeq[Checks.Vote] = {
        calls += 1
        val v = real.detect(g)
        if (calls % 2 == 1) v else v.updated(0, v(0).copy(_3 = v(0)._3 + 1))
      }
      def digest(v: IndexedSeq[Checks.Vote]) = real.digest(v)
      def sanity(v: IndexedSeq[Checks.Vote]) = real.sanity(v)
      def bestF1(v: IndexedSeq[Checks.Vote], b: Set[Long]) = real.bestF1(v, b)
      def profile(v: IndexedSeq[Checks.Vote], w: Seq[JobStats.Window], t: Tracer) = real.profile(v, w, t)
    }
    val r = new Bench.Run(spark, cfg, specs, corrupting).result()
    assert(!r.correct)
    assert(r.failed >= 1 && r.failed < r.attempted)
    assert(r.metrics("ok_frac").value < 1.0)
    assert(r.problems.forall(_.contains("digest")))
  }

  test("the oracle comparison finds a changed, missing or extra vote row") {
    val votes = IndexedSeq(("u", 1L, 3L), ("u", 2L, 1L), ("v", 9L, 2L))
    assert(Checks.firstDifference(votes, votes).isEmpty)
    assert(Checks.firstDifference(votes, votes.updated(1, ("u", 2L, 2L))).isDefined)
    assert(Checks.firstDifference(votes, votes.dropRight(1)).isDefined)
    assert(Checks.firstDifference(votes, votes :+ (("v", 10L, 1L))).isDefined)
  }

  test("the replay rejects a block score that Fdet.run did not return") {
    val edges = (for (u <- 1L to 6L; v <- 1L to 4L if u <= 4 || v == 1) yield (u, v)).toArray
    val r = repro.core.Fdet.run(edges, maxBlocks = 3, elbowPatience = None)
    assert(Checks.replay(edges, r, new Tracer).mismatch.isEmpty)
    val b = r.blocks.head
    val bad = r.copy(blocks = r.blocks.updated(0, b.copy(score = math.nextUp(b.score))))
    assert(Checks.replay(edges, bad, new Tracer).mismatch.isDefined)
  }
}
