package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.data.FraudGraphGen

/** Integration smoke of every experiment harness at sf=0.1 (the full-scale
  * runs live in bench/). */
class ExperimentsSpec extends SparkSpec {

  private val sf = 0.1

  test("tableI returns one row per dataset with consistent stats") {
    val rows = Experiments.tableI(spark, sf)
    assert(rows.map(_.name) == Seq("jd1", "jd2", "jd3"))
    rows.foreach { r =>
      assert(r.pins > 0 && r.merchants > 0 && r.edges > 0)
      assert(r.fraudPins > 0 && r.fraudPins < r.pins)
      assert(r.edges >= r.pins) // every PIN in the graph has >= 1 edge
    }
  }

  test("tableI fraud counts equal the spec blacklists") {
    val rows = Experiments.tableI(spark, sf)
    rows.zip(FraudGraphGen.all).foreach { case (r, spec) =>
      assert(r.fraudPins == spec.scaled(sf).fraudUsers)
    }
  }

  test("renderTableI emits a row per dataset") {
    val s = Experiments.renderTableI(Experiments.tableI(spark, sf))
    assert(s.contains("jd1") && s.contains("jd2") && s.contains("jd3"))
    assert(s.contains("Fraud PIN"))
  }

  test("tableIII reports positive timings for both methods") {
    val rows = Experiments.tableIII(spark, sf, n = 8, s = 0.1, kFraudar = 5)
    assert(rows.size == 3)
    rows.foreach { r =>
      assert(r.ensemSec > 0 && r.fraudarSec > 0)
      assert(r.speedup > 0)
    }
    val rendered = Experiments.renderTableIII(rows)
    assert(rendered.contains("EnsemFDet") && rendered.contains("FRAUDAR"))
  }

  test("methodComparison yields sane best-F1 rows for all four methods") {
    val rows = Experiments.methodComparison(spark, sf, n = 12, s = 0.2)
    assert(rows.size == 12) // 3 datasets x 4 methods
    assert(rows.map(_.method).distinct.toSet ==
      Set("EnsemFDet", "FRAUDAR", "SPOKEN", "FBOX"))
    rows.foreach { r =>
      assert(r.best.prf.f1 >= 0.0 && r.best.prf.f1 <= 1.0)
    }
    // the paper's graph methods work on every dataset
    rows.filter(r => r.method == "EnsemFDet" || r.method == "FRAUDAR")
      .foreach(r => assert(r.best.prf.f1 > 0.3, s"${r.dataset}/${r.method}: ${r.best.prf.f1}"))
    assert(Experiments.renderMethodRows(rows).contains("best F1"))
  }

  test("samplingComparison covers the four samplers") {
    val rows = Experiments.samplingComparison(spark, sf, n = 12, s = 0.2)
    assert(rows.map(_.method) == Seq("RES", "ONS-PIN", "ONS-Merchant", "TNS"))
    rows.foreach(r => assert(r.best.prf.f1 >= 0.0 && r.best.prf.f1 <= 1.0))
  }

  test("truncationComparison reports kHat per sample for the truncated variant") {
    val rows = Experiments.truncationComparison(spark, sf, n = 10, s = 0.2, fixK = 10)
    assert(rows.size == 2)
    assert(rows.head.blocksPerSample.nonEmpty)
    assert(rows.head.blocksPerSample.forall(k => k >= 1 && k <= 10))
    assert(Experiments.renderTruncationRows(rows).contains("k̂ per sample"))
  }

  test("sweepN returns a row per N") {
    val rows = Experiments.onJd3(spark, sf)(Experiments.sweepN(_, ns = Seq(4, 8)))
    assert(rows.map(_.method) == Seq("N=4", "N=8"))
  }

  test("sweepS keeps R = S x N = 1") {
    val rows = Experiments.onJd3(spark, sf)(Experiments.sweepS(_, ss = Seq(0.1, 0.2)))
    assert(rows.map(_.method) == Seq("S=0.10,N=10", "S=0.20,N=5"))
  }

  test("sweepT covers thresholds with monotone detected counts") {
    val rows = Experiments.onJd3(spark, sf)(Experiments.sweepT(_, n = 12, s = 0.2))
    assert(rows.nonEmpty)
    rows.sliding(2).foreach {
      case Seq(a, b) => assert(b.prf.detected <= a.prf.detected)
      case _ =>
    }
    assert(Experiments.renderTRows(rows).contains("Recall"))
  }

  test("withDataset unpersists the edges after a normal and a throwing body") {
    val spec = FraudGraphGen.Jd1.scaled(sf)
    var edges: DataFrame = null
    assert(Experiments.withDataset(spark, spec) { d =>
      edges = d.edges
      d.edges.storageLevel != StorageLevel.NONE
    })
    assert(edges.storageLevel == StorageLevel.NONE)

    edges = null
    intercept[IllegalStateException] {
      Experiments.withDataset(spark, spec) { d =>
        edges = d.edges
        throw new IllegalStateException("body failed")
      }
    }
    assert(edges.storageLevel == StorageLevel.NONE)
  }

  test("text table renderer aligns and separates header") {
    val t = Experiments.table(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines(1).forall("|-".contains(_)))
    assert(lines.map(_.length).distinct.length == 1)
  }
}
