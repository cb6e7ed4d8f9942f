package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSpec, TestGraphs}

class DensityMetricSpec extends AnyFunSuite with PropSpec {

  test("merchant weights follow 1/log(d + c)") {
    val g = LocalGraph.fromEdges(Array((1L, 10L), (2L, 10L), (3L, 10L), (1L, 11L)))
    val w = DensityMetric.merchantWeights(g)
    assert(math.abs(w(0) - 1.0 / math.log(3 + 5.0)) < 1e-12)
    assert(math.abs(w(1) - 1.0 / math.log(1 + 5.0)) < 1e-12)
  }

  test("Definition 2 as printed ranks a single edge above a dense block; phi does not") {
    // The literal formula sums merchant nodes, not edges:
    //   (1/(|U|+|V|)) Σ_{j∈V} 1/log(d_j + c)
    def literal(es: Array[(Long, Long)]): Double = {
      val deg = es.distinct.groupBy(_._2).map { case (v, e) => v -> e.length }
      val nodes = es.map(_._1).distinct.length + deg.size
      deg.values.map(d => 1.0 / math.log(d + DensityMetric.DefaultC)).sum / nodes
    }
    val edge = Array((1L, 2L))
    val block = TestGraphs.block(0, 10, 100, 10)
    assert(literal(edge) > literal(block))
    assert(DensityMetric.phi(LocalGraph.fromEdges(block)) >
      DensityMetric.phi(LocalGraph.fromEdges(edge)))
  }

  test("phi of a complete block matches the closed form") {
    // 4 users x 3 merchants complete: every merchant degree 4,
    // f = 12 / log(9), n = 7.
    val g = LocalGraph.fromEdges(TestGraphs.block(0, 4, 100, 3))
    val expected = 12.0 / math.log(9.0) / 7.0
    assert(math.abs(DensityMetric.phi(g) - expected) < 1e-12)
  }

  test("phi of a single edge") {
    val g = LocalGraph.fromEdges(Array((1L, 2L)))
    assert(math.abs(DensityMetric.phi(g) - (1.0 / math.log(6.0)) / 2.0) < 1e-12)
  }

  test("phi of the empty graph is zero") {
    assert(DensityMetric.phi(LocalGraph.fromEdges(Array.empty[(Long, Long)])) == 0.0)
  }

  test("a dense block scores higher than the same mass spread as pairs") {
    val dense = LocalGraph.fromEdges(TestGraphs.block(0, 5, 100, 4))
    val sparse = LocalGraph.fromEdges(TestGraphs.pairs(0, 100, 20))
    assert(DensityMetric.phi(dense) > DensityMetric.phi(sparse))
  }

  test("a huge hub star scores lower than a modest dense block (camouflage resistance)") {
    val hub = LocalGraph.fromEdges(TestGraphs.star(999, 0, 500))
    val blk = LocalGraph.fromEdges(TestGraphs.block(1000, 10, 100, 5))
    assert(DensityMetric.phi(blk) > DensityMetric.phi(hub))
  }

  test("phi matches TestGraphs.phiSubset on the full node set") {
    val es = TestGraphs.block(0, 4, 100, 3) ++ TestGraphs.pairs(50, 200, 5)
    val g = LocalGraph.fromEdges(es)
    val w = TestGraphs.merchantWeightMap(es)
    val full = TestGraphs.phiSubset(es, w, g.uIds.toSet, g.vIds.toSet)
    assert(math.abs(DensityMetric.phi(g) - full) < 1e-12)
  }

  private val edgeListGen: Gen[Array[(Long, Long)]] =
    Gen.nonEmptyListOf(
      for { u <- Gen.choose(1L, 10L); v <- Gen.choose(100L, 110L) } yield (u, v)
    ).map(_.toArray)

  checkProp("phi is non-negative and finite") {
    Prop.forAll(edgeListGen) { es =>
      val p = DensityMetric.phi(LocalGraph.fromEdges(es))
      p >= 0.0 && java.lang.Double.isFinite(p)
    }
  }

  checkProp("phi is bounded by max weight x edges / nodes") {
    Prop.forAll(edgeListGen) { es =>
      val g = LocalGraph.fromEdges(es)
      val wMax = 1.0 / math.log(1 + DensityMetric.DefaultC)
      DensityMetric.phi(g) <= wMax * g.numEdges / g.numNodes + 1e-12
    }
  }

  checkProp("weights are positive and decrease with degree") {
    Prop.forAll(edgeListGen) { es =>
      val g = LocalGraph.fromEdges(es)
      val w = DensityMetric.merchantWeights(g)
      val d = g.vDegrees
      w.forall(_ > 0) && d.indices.forall(j =>
        d.indices.forall(k => d(j) <= d(k) || w(j) <= w(k)))
    }
  }
}
