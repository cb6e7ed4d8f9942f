package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropSpec, SparkSpec, TestGraphs}
import repro.baselines.Fraudar
import repro.data.FraudGraphGen

/** `Fdet.run` builds its graph once and removes block edges in place; the
  * rebuild-every-round kernel in `RebuildFdet` is the reference. Both must
  * return the same blocks, the same score bits and the same k̂.
  */
class FdetOracleSpec extends SparkSpec with PropSpec {

  /** The first difference between two results, if any. */
  private def diff(got: FdetResult, ref: FdetResult): Option[String] = {
    val round = got.blocks.indices.find { r =>
      r >= ref.blocks.length ||
      !java.util.Arrays.equals(got.blocks(r).uIds, ref.blocks(r).uIds) ||
      !java.util.Arrays.equals(got.blocks(r).vIds, ref.blocks(r).vIds) ||
      java.lang.Double.compare(got.blocks(r).score, ref.blocks(r).score) != 0 ||
      java.lang.Double.compare(got.scores(r), ref.scores(r)) != 0
    }
    round.map(r => s"round $r differs")
      .orElse(Option.when(got.blocks.length != ref.blocks.length)(
        s"${got.blocks.length} blocks, reference has ${ref.blocks.length}"))
      .orElse(Option.when(got.kHat != ref.kHat)(s"k̂ ${got.kHat}, reference ${ref.kHat}"))
  }

  private def compare(es: Array[(Long, Long)], maxBlocks: Int, patience: Option[Int]): Option[String] =
    diff(Fdet.run(es, maxBlocks, patience), RebuildFdet.run(es, maxBlocks, patience))

  // Random edges (with repeats), hub stars, planted blocks, isolated pairs
  // and a lone edge, in a shuffled order with some rows duplicated.
  private val graphGen: Gen[Array[(Long, Long)]] = {
    val randomEdges = Gen.listOf(
      for { u <- Gen.choose(1L, 30L); v <- Gen.choose(100L, 120L) } yield (u, v))
    val hub = for {
      v <- Gen.choose(100L, 125L); uBase <- Gen.choose(0L, 60L); n <- Gen.choose(2, 40)
    } yield TestGraphs.star(v, uBase, n)
    val block = for {
      uBase <- Gen.choose(0L, 40L); nU <- Gen.choose(1, 12)
      vBase <- Gen.choose(100L, 118L); nV <- Gen.choose(1, 8); epu <- Gen.choose(1, nV)
    } yield TestGraphs.block(uBase, nU, vBase, nV, epu)
    for {
      rnd <- randomEdges
      hubs <- Gen.choose(0, 2).flatMap(Gen.listOfN(_, hub))
      blocks <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, block))
      nPairs <- Gen.choose(0, 10)
      lone <- Gen.oneOf(Seq.empty[(Long, Long)], Seq((5000L, 6000L)))
      nDup <- Gen.choose(0, 20)
      seed <- Gen.long
    } yield {
      val es = rnd ++ hubs.flatten ++ blocks.flatten ++ TestGraphs.pairs(1000, 2000, nPairs) ++ lone
      new scala.util.Random(seed).shuffle(es ++ es.take(nDup)).toArray
    }
  }

  private val patienceGen: Gen[Option[Int]] = Gen.oneOf(None, Some(1), Some(3))

  checkProp("equals the rebuild kernel on random bipartite graphs", 500) {
    Prop.forAll(graphGen, Gen.choose(1, 30), patienceGen) { (es, maxBlocks, patience) =>
      val d = compare(es, maxBlocks, patience)
      Prop(d.isEmpty) :| s"${d.getOrElse("")} (maxBlocks=$maxBlocks, patience=$patience, ${es.length} edges)"
    }
  }

  /** Equal block ids, equal score bits and equal k̂. */
  private def same(a: FdetResult, b: FdetResult): Boolean =
    a.kHat == b.kHat && a.blocks.length == b.blocks.length &&
      a.blocks.zip(b.blocks).forall { case (x, y) =>
        java.util.Arrays.equals(x.uIds, y.uIds) && java.util.Arrays.equals(x.vIds, y.vIds) &&
          java.lang.Double.doubleToLongBits(x.score) == java.lang.Double.doubleToLongBits(y.score)
      }

  // EnsemFdet joins a sample's chunks in the order they arrive, so the kernel
  // must not depend on the order of its edges or on repeated ones.
  checkProp("the result does not depend on edge order or repeated edges", 300) {
    Prop.forAll(graphGen, Gen.long, Gen.choose(0, 30), Gen.choose(1, 30), patienceGen) {
      (es, seed, nDup, maxBlocks, patience) =>
        val rnd = new scala.util.Random(seed)
        val moved = rnd.shuffle((es ++ rnd.shuffle(es.toSeq).take(nDup)).toSeq).toArray
        Prop(same(Fdet.run(es, maxBlocks, patience), Fdet.run(moved, maxBlocks, patience))) :|
          s"maxBlocks=$maxBlocks, patience=$patience, ${es.length} edges, $nDup repeated"
    }
  }

  for (spec <- FraudGraphGen.all; patience <- Seq(None, Some(3)))
    test(s"equals the rebuild kernel on RES samples of ${spec.name} at sf=1, patience $patience") {
      val edges = FraudGraphGen.edges(spark, spec.scaled(1.0))
      val samples = Sampling(SampleMethod.RES, edges, 8, 0.1, 33).collect()
        .groupBy(_.getInt(0)).values
        .map(_.map(r => (r.getLong(1), r.getLong(2))))
      assert(samples.size == 8)
      for (es <- samples) {
        val d = compare(es, 30, patience)
        assert(d.isEmpty, s"${d.getOrElse("")} on a ${es.length}-edge sample")
      }
    }

  test("FRAUDAR K=30 on jd3 at sf=1 equals the rebuild kernel") {
    val es = Fraudar.collectEdges(FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(1.0)))
    val got = Fraudar.run(es, 30)
    assert(got.blocks.length == 30)
    val d = diff(got, RebuildFdet.run(es, 30, None))
    assert(d.isEmpty, d.getOrElse(""))
  }
}
