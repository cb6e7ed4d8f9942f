package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSpec, TestGraphs}

class PeelingSpec extends AnyFunSuite with PropSpec {

  private def peel(es: Array[(Long, Long)]): Peeling.Block = {
    val g = LocalGraph.fromEdges(es)
    Peeling.densestBlock(g, DensityMetric.merchantWeights(g))
  }

  test("single edge: the block is that pair") {
    val b = peel(Array((1L, 10L)))
    assert(b.uIds.toSeq == Seq(1L) && b.vIds.toSeq == Seq(10L))
    assert(math.abs(b.score - (1.0 / math.log(6.0)) / 2.0) < 1e-12)
  }

  test("planted complete block among degree-1 pairs is recovered exactly") {
    val blk = TestGraphs.block(0, 8, 100, 4)
    val es = blk ++ TestGraphs.pairs(500, 600, 40)
    val b = peel(es)
    assert(b.uIds.toSet == (1L to 8L).toSet)
    assert(b.vIds.toSet == (101L to 104L).toSet)
  }

  test("dense block beats a big hub star") {
    val es = TestGraphs.block(0, 10, 100, 5) ++ TestGraphs.star(999, 2000, 300)
    val b = peel(es)
    assert(b.uIds.toSet == (1L to 10L).toSet)
    assert(!b.vIds.contains(999L))
  }

  test("of two blocks with different density the denser is returned") {
    val dense = TestGraphs.block(0, 20, 100, 5)        // complete, 20x5
    val sparse = TestGraphs.block(1000, 10, 2000, 5, 2) // 2 edges per user
    val b = peel(dense ++ sparse)
    assert(b.uIds.toSet == (1L to 20L).toSet)
    assert(b.vIds.forall(v => v > 100 && v <= 105))
  }

  test("reported score is the recomputed phi of the returned node set") {
    val es = TestGraphs.block(0, 6, 100, 3) ++ TestGraphs.pairs(50, 200, 10)
    val b = peel(es)
    val w = TestGraphs.merchantWeightMap(es)
    val recomputed = TestGraphs.phiSubset(es, w, b.uIds.toSet, b.vIds.toSet)
    assert(math.abs(b.score - recomputed) < 1e-9)
  }

  test("block score is at least phi of the full graph") {
    val es = TestGraphs.block(0, 6, 100, 3) ++ TestGraphs.pairs(50, 200, 10)
    assert(peel(es).score >= DensityMetric.phi(LocalGraph.fromEdges(es)) - 1e-12)
  }

  test("deterministic across runs") {
    val es = TestGraphs.block(0, 5, 100, 4) ++ TestGraphs.pairs(50, 200, 7)
    val (a, b) = (peel(es), peel(es))
    assert(a.uIds.toSeq == b.uIds.toSeq && a.vIds.toSeq == b.vIds.toSeq && a.score == b.score)
  }

  test("returned ids come from the input graph") {
    val es = TestGraphs.block(0, 5, 100, 4)
    val b = peel(es)
    assert(b.uIds.toSet.subsetOf(es.map(_._1).toSet))
    assert(b.vIds.toSet.subsetOf(es.map(_._2).toSet))
  }

  // --- brute-force verification on tiny graphs -----------------------------

  private val tinyGen: Gen[Array[(Long, Long)]] =
    Gen.chooseNum(1, 14).flatMap { n =>
      Gen.listOfN(n,
        for { u <- Gen.choose(1L, 5L); v <- Gen.choose(100L, 104L) } yield (u, v)
      ).map(_.toArray)
    }

  checkProp("greedy peeling is within [OPT/2, OPT] of the brute-force optimum", 120) {
    Prop.forAll(tinyGen) { es =>
      val opt = TestGraphs.bruteForceOpt(es)
      val got = peel(es).score
      got <= opt + 1e-9 && got >= opt / 2.0 - 1e-9
    }
  }

  checkProp("block is non-empty and score non-negative") {
    Prop.forAll(tinyGen) { es =>
      val b = peel(es)
      b.nodeCount > 0 && b.score >= 0.0
    }
  }

  checkProp("score always equals recomputed phi of the block") {
    Prop.forAll(tinyGen) { es =>
      val b = peel(es)
      val w = TestGraphs.merchantWeightMap(es)
      math.abs(b.score - TestGraphs.phiSubset(es, w, b.uIds.toSet, b.vIds.toSet)) < 1e-9
    }
  }

  // --- graphs with isolated nodes ------------------------------------------

  /** A graph with `b`'s internal edges removed in place, so nodes whose
    * edges all lay inside `b` stay in the graph with no edge.
    */
  private def withRemoved(es: Array[(Long, Long)], b: Peeling.Block): LocalGraph = {
    val g = LocalGraph.fromEdges(es)
    g.removeBlockEdges(b)
    g
  }

  private def sameBlock(a: Peeling.Block, b: Peeling.Block): Boolean =
    java.util.Arrays.equals(a.uIds, b.uIds) && java.util.Arrays.equals(a.vIds, b.vIds) &&
      java.lang.Double.compare(a.score, b.score) == 0

  private val graphAndBlockGen: Gen[(Array[(Long, Long)], Peeling.Block)] =
    for {
      es <- Gen.nonEmptyListOf(
        for { u <- Gen.choose(1L, 15L); v <- Gen.choose(100L, 110L) } yield (u, v)).map(_.toArray)
      us <- Gen.someOf(es.map(_._1).distinct.toSeq)
      vs <- Gen.someOf(es.map(_._2).distinct.toSeq)
    } yield (es, Peeling.Block(us.sorted.toArray, vs.sorted.toArray, 0.0))

  checkProp("a graph with isolated nodes peels like the compacted fresh graph, bit for bit", 200) {
    Prop.forAll(graphAndBlockGen) { case (es, b) =>
      val rest = es.filter { case (u, v) => !(b.uIds.contains(u) && b.vIds.contains(v)) }
      rest.isEmpty || {
        val g = withRemoved(es, b)
        sameBlock(Peeling.densestBlock(g, DensityMetric.merchantWeights(g)), peel(rest))
      }
    }
  }

  test("isolated nodes never appear in the block") {
    // Removing the planted block's edges isolates its users and merchants.
    val blk = TestGraphs.block(0, 6, 100, 3)
    val es = blk ++ TestGraphs.pairs(50, 200, 10)
    val g = withRemoved(es, peel(es))
    assert(g.numNodes == 20 && g.numU == 16 && g.numV == 13)
    val b = Peeling.densestBlock(g, DensityMetric.merchantWeights(g))
    assert(b.uIds.forall(_ > 50) && b.vIds.forall(_ > 200))
    assert(sameBlock(b, peel(TestGraphs.pairs(50, 200, 10))))
  }

  test("a graph with no edge throws IllegalArgumentException") {
    val g = withRemoved(Array((1L, 10L), (2L, 10L)), Peeling.Block(Array(1L, 2L), Array(10L), 0.0))
    assert(g.numEdges == 0)
    intercept[IllegalArgumentException](Peeling.densestBlock(g, DensityMetric.merchantWeights(g)))
    val empty = LocalGraph.fromEdges(Array.empty[(Long, Long)])
    intercept[IllegalArgumentException](Peeling.densestBlock(empty, DensityMetric.merchantWeights(empty)))
  }

  // --- oracle: the indirect-key peel in IndirectKeyPeeling -----------------

  // Graphs built to tie: repeated complete blocks of one shape, hub stars of
  // one size, isolated pairs and a few random edges, shuffled.
  private val tieGraphGen: Gen[Array[(Long, Long)]] = {
    val blocks = for {
      nU <- Gen.choose(1, 6); nV <- Gen.choose(1, 5); copies <- Gen.choose(0, 4)
    } yield (0 until copies).flatMap(c => TestGraphs.block(100L * c, nU, 1000L + 100L * c, nV)).toArray
    val stars = for {
      n <- Gen.choose(2, 12); copies <- Gen.choose(0, 3)
    } yield (0 until copies).flatMap(c => TestGraphs.star(5000L + c, 5000L + 100L * c, n)).toArray
    val randomEdges = Gen.listOf(
      for { u <- Gen.choose(1L, 20L); v <- Gen.choose(1001L, 1010L) } yield (u, v))
    for {
      bs <- blocks; ss <- stars; rnd <- randomEdges
      nPairs <- Gen.choose(0, 8)
      seed <- Gen.long
    } yield new scala.util.Random(seed)
      .shuffle((bs ++ ss ++ rnd ++ TestGraphs.pairs(9000, 9000, nPairs)).toSeq).toArray
  }

  /** Each merchant's weight: its `merchantWeights` value, or one of 2–3
    * fixed values drawn with the given seed.
    */
  private val weightsGen: Gen[LocalGraph => Array[Double]] =
    Gen.oneOf(
      Gen.const((g: LocalGraph) => DensityMetric.merchantWeights(g)),
      for {
        values <- Gen.oneOf(Seq(1.0, 0.5), Seq(1.0 / math.log(6.0), 0.25, 1.0), Seq(0.1, 0.3))
        seed <- Gen.long
      } yield (g: LocalGraph) => {
        val rnd = new scala.util.Random(seed)
        Array.fill(g.numV)(values(rnd.nextInt(values.length)))
      })

  private def sameBits(a: Peeling.Block, b: Peeling.Block): Boolean =
    java.util.Arrays.equals(a.uIds, b.uIds) && java.util.Arrays.equals(a.vIds, b.vIds) &&
      java.lang.Double.doubleToLongBits(a.score) == java.lang.Double.doubleToLongBits(b.score)

  checkProp("equals the indirect-key peel, ids and score bits, over up to 8 removals", 400) {
    Prop.forAll(tieGraphGen, weightsGen, Gen.choose(0, 8)) { (es, weightsOf, rounds) =>
      val g = LocalGraph.fromEdges(es)
      val firstBad = Iterator.range(0, rounds + 1).takeWhile(_ => g.numEdges > 0).map { r =>
        val w = weightsOf(g)
        val (got, want) = (Peeling.densestBlock(g, w), IndirectKeyPeeling.densestBlock(g, w))
        val bad = Option.when(!sameBits(got, want))(s"round $r differs")
        g.removeBlockEdges(got)
        bad
      }.collectFirst { case Some(d) => d }
      Prop(firstBad.isEmpty) :| s"${firstBad.getOrElse("")} (${es.length} edges)"
    }
  }
}
