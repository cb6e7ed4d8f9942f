package repro.core

import java.math.{MathContext, BigDecimal => JBigDecimal}

import repro.SparkSpec
import repro.baselines.Fraudar
import repro.data.FraudGraphGen

/** φ at a realistic size: each block of FRAUDAR K=30 on jd3 at sf=10
  * (788k edges) scores what φ recomputed from scratch gives. The recompute
  * finds the block's induced edges by filtering the edge list left after the
  * earlier rounds, and sums their weights as exact `BigDecimal`s, so it
  * shares neither the peel's running sum nor the graph's slices.
  */
class PhiExactSpec extends SparkSpec {

  private def contains(sortedIds: Array[Long], id: Long): Boolean =
    java.util.Arrays.binarySearch(sortedIds, id) >= 0

  test("FRAUDAR K=30 block scores on jd3 at sf=10 equal exact phi to 1e-9") {
    var current = Fraudar.collectEdges(FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(10.0)))
    val g = LocalGraph.fromEdges(current)
    assert(g.numEdges == current.length, "the generated edges are distinct")
    for (r <- 0 until 30) {
      val w = DensityMetric.merchantWeights(g)
      val b = Peeling.densestBlock(g, w)
      val (inside, rest) = current.partition { case (u, v) => contains(b.uIds, u) && contains(b.vIds, v) }
      assert(inside.nonEmpty, s"round $r: block has no edge")
      val sum = inside.foldLeft(JBigDecimal.ZERO) { case (acc, (_, v)) =>
        acc.add(new JBigDecimal(w(java.util.Arrays.binarySearch(g.vIds, v))))
      }
      val exact = sum.divide(new JBigDecimal(b.nodeCount), MathContext.DECIMAL128)
      val relErr = new JBigDecimal(b.score).subtract(exact).abs
        .divide(exact, MathContext.DECIMAL128).doubleValue
      assert(relErr <= 1e-9, s"round $r: score ${b.score}, exact $exact, relative error $relErr")
      assert(g.removeBlockEdges(b) == inside.length, s"round $r: removal count")
      current = rest
    }
  }
}
