package repro.eval

import org.scalacheck.{Gen, Prop}
import repro.{PropSpec, SparkSpec}
import repro.eval.Metrics.{PrPoint, Prf}

class MetricsSpec extends SparkSpec with PropSpec {

  // ---- Prf arithmetic -------------------------------------------------------

  test("precision/recall/f1 on a known confusion") {
    val p = Prf(tp = 8, fp = 2, fn = 8)
    assert(math.abs(p.precision - 0.8) < 1e-12)
    assert(math.abs(p.recall - 0.5) < 1e-12)
    assert(math.abs(p.f1 - 2 * 0.8 * 0.5 / 1.3) < 1e-12)
  }

  test("empty detection has zero precision and f1") {
    val p = Prf(0, 0, 5)
    assert(p.precision == 0.0 && p.recall == 0.0 && p.f1 == 0.0)
  }

  test("perfect detection") {
    val p = Prf(5, 0, 0)
    assert(p.precision == 1.0 && p.recall == 1.0 && p.f1 == 1.0)
  }

  test("prfLocal counts correctly") {
    val p = Metrics.prfLocal(Set(1L, 2L, 3L), Set(2L, 3L, 4L, 5L))
    assert(p == Prf(2, 1, 2))
  }

  // ---- sweeps ---------------------------------------------------------------

  test("voteSweep produces one point per reachable threshold") {
    val votes = Seq((1L, 3L), (2L, 2L), (3L, 1L), (4L, 1L))
    val sweep = Metrics.voteSweep(votes, Set(1L, 2L))
    assert(sweep.map(_.threshold) == Seq(1.0, 2.0, 3.0))
    assert(sweep.head.prf == Prf(2, 2, 0))  // t=1: all detected
    assert(sweep.last.prf == Prf(1, 0, 1))  // t=3: only node 1
  }

  test("voteSweep precision rises and detected count falls with T on nested sets") {
    val votes = (1L to 10L).map(i => (i, i)) // node i has i votes; fraud = 6..10
    val sweep = Metrics.voteSweep(votes, (6L to 10L).toSet)
    sweep.sliding(2).foreach {
      case Seq(a, b) =>
        assert(b.prf.detected <= a.prf.detected)
        assert(b.prf.recall <= a.prf.recall)
        assert(b.prf.precision >= a.prf.precision - 1e-12)
      case _ =>
    }
  }

  test("voteSweep of empty votes is empty") {
    assert(Metrics.voteSweep(Seq.empty, Set(1L)).isEmpty)
  }

  test("scoreSweep detects by descending score and skips zero scores") {
    val scores = Seq((1L, 0.9), (2L, 0.5), (3L, 0.0), (4L, 0.5))
    val sweep = Metrics.scoreSweep(scores, Set(1L))
    assert(sweep.map(_.threshold) == Seq(0.9, 0.5))
    assert(sweep.head.prf == Prf(1, 0, 0))
    assert(sweep.last.prf == Prf(1, 2, 0))
  }

  test("scoreSweep caps the number of points") {
    val scores = (1L to 500L).map(i => (i, i / 500.0))
    assert(Metrics.scoreSweep(scores, Set(1L)).length <= 50)
  }

  // ---- the ranked sweep against the Set-based oracle -------------------------

  /** Up to 300 unique ids with one key each, and a blacklist that also
    * holds ids outside the input.
    */
  private def keyed[K](keys: Int => Gen[Seq[K]]): Gen[(Seq[(Long, K)], Set[Long])] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 8 -> Gen.choose(1, 300))
    ids <- Gen.pick(n, 1L to 400L)
    ks <- keys(n)
    black <- Gen.someOf(1L to 420L)
  } yield (ids.toSeq.zip(ks), black.toSet)

  /** Vote counts in 1..m for an m in 1..80, so small m ties heavily. */
  private def votes(n: Int): Gen[Seq[Long]] =
    Gen.choose(1L, 80L).flatMap(m => Gen.listOfN(n, Gen.choose(1L, m)))

  /** Scores from a pool of up to 121 values, a quarter of them ≤ 0, mixed
    * with uniform draws in [-1, 1] and exact zeros: a small pool ties at the
    * cuts, a large one gives more than 50 distinct scores.
    */
  private def scores(n: Int): Gen[Seq[Double]] = Gen.choose(0, 120).flatMap { pool =>
    Gen.listOfN(n, Gen.frequency(
      4 -> Gen.choose(0, pool).map(i => (i - pool / 4) / 8.0),
      1 -> Gen.choose(-1.0, 1.0),
      1 -> Gen.const(0.0)))
  }

  checkProp("voteSweep equals the Set-based sweep point for point", minTests = 500) {
    Prop.forAllNoShrink(keyed(votes)) {
      case (vs, black) => Metrics.voteSweep(vs, black) == SetSweeps.voteSweep(vs, black)
    }
  }

  checkProp("scoreSweep equals the Set-based sweep point for point", minTests = 500) {
    Prop.forAllNoShrink(keyed(scores)) {
      case (ss, black) => Metrics.scoreSweep(ss, black) == SetSweeps.scoreSweep(ss, black)
    }
  }

  test("bestF1 picks the max-F1 point") {
    val pts = Seq(
      PrPoint(1, Prf(5, 5, 0)),
      PrPoint(2, Prf(4, 0, 1)),
      PrPoint(3, Prf(1, 0, 4)))
    assert(Metrics.bestF1(pts).threshold == 2)
  }

  test("bestF1 of an empty curve is a zero point") {
    assert(Metrics.bestF1(Seq.empty).prf.f1 == 0.0)
  }

  test("collectUserVotes filters to the user side") {
    import spark.implicits._
    val votes = Seq(("u", 1L, 3L), ("v", 9L, 5L), ("u", 2L, 1L)).toDF("side", "id", "votes")
    assert(Metrics.collectUserVotes(votes).toSet == Set((1L, 3L), (2L, 1L)))
  }
}
