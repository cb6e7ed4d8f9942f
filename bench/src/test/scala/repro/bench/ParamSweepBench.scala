package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Figures 7–9 shaped parameter study on dataset #3 (RES sampling).
  *
  * Paper's claims to reproduce:
  *  - Fig 7: performance improves slightly with N but is stable across
  *    N ∈ {10, 20, 40, 80} (R between 1 and 8);
  *  - Fig 8: with R = S·N = 1 fixed, S ∈ {0.01, 0.05, 0.1} all land close —
  *    small samples lose little;
  *  - Fig 9: with T rising, precision goes up, recall and detected count go
  *    down, smoothly.
  */
class ParamSweepBench extends SparkSpec {

  test("Figure 7: N sweep at S=0.1 — more samples never hurt") {
    val rows = Experiments.onJd3(spark, 1.0)(Experiments.sweepN(_, ns = Seq(10, 20, 40, 80)))
    println("\n=== N sweep on jd3 (S=0.1) ===")
    println(Experiments.renderSweepRows("N (S=0.1)", rows))
    val f1s = rows.map(_.best.prf.f1)
    assert(f1s.forall(_ > 0.3), s"f1s=$f1s")
    // bagging improves (weakly) with N; at our 1/100 scale the improvement
    // from N=10 to N=80 is larger than the paper's near-flat curve because a
    // 10-vote tally is too coarse to separate ring from background users —
    // recorded as a deviation in EXPERIMENTS.md.
    f1s.sliding(2).foreach {
      case Seq(a, b) => assert(b >= a - 0.05, s"f1s=$f1s")
      case _ =>
    }
    assert(f1s.last >= f1s.head, s"f1s=$f1s")
  }

  test("Figure 8: S sweep at fixed R=1 is stable") {
    val rows = Experiments.onJd3(spark, 1.0)(Experiments.sweepS(_, ss = Seq(0.01, 0.05, 0.1)))
    println("\n=== S sweep on jd3 (R=S*N=1) ===")
    println(Experiments.renderSweepRows("S (R=1)", rows))
    val f1s = rows.map(_.best.prf.f1)
    assert(f1s.forall(_ > 0.3), s"f1s=$f1s")
    assert(f1s.max - f1s.min < 0.35, s"f1s=$f1s")
  }

  test("Figure 9: T sweep — precision up, recall and detected count down") {
    val rows = Experiments.onJd3(spark, 1.0)(Experiments.sweepT(_, n = 80, s = 0.1))
    println("\n=== T sweep on jd3 (S=0.1, N=80) ===")
    println(Experiments.renderTRows(rows))
    assert(rows.size >= 10, "vote counts should span many thresholds")
    rows.sliding(2).foreach {
      case Seq(a, b) =>
        assert(b.prf.detected <= a.prf.detected)
        assert(b.prf.recall <= a.prf.recall + 1e-12)
      case _ =>
    }
    // precision at the top threshold far above precision at T=1
    assert(rows.last.prf.precision > rows.head.prf.precision)
  }
}
