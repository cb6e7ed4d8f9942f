package repro.core

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import repro.SparkSpec
import repro.baselines.Fraudar
import repro.data.{FraudGraphGen, FraudSpec}

/** Pins of the kernel's output on generated data, and two divergences from
  * the printed paper: overlapping blocks and the patience stopping rule.
  *
  * The digests pin what `FdetOracleSpec` cannot: that oracle shares
  * `Peeling`, so it passes for any heap tie order. A change that alters the
  * output on purpose (a new tie rule, prefix choice or score sum) updates
  * both digests in the same change and says so in CHANGES.md.
  */
class KernelOutputSpec extends SparkSpec {

  private def sha256(lines: Iterator[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes(StandardCharsets.UTF_8)))
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def edgesOf(spec: FraudSpec): Array[(Long, Long)] =
    Fraudar.collectEdges(FraudGraphGen.edges(spark, spec.scaled(1.0)))

  test("FRAUDAR K=30 on jd3 at sf=1: blocks, score bits and k̂ match the pinned digest") {
    val r = Fraudar.run(edgesOf(FraudGraphGen.Jd3), 30)
    val got = sha256(r.blocks.iterator.map { b =>
      s"${b.uIds.mkString(" ")}|${b.vIds.mkString(" ")}|${java.lang.Double.doubleToLongBits(b.score)}"
    } ++ Iterator(s"khat=${r.kHat}"))
    assert(got == "2d872609e777b18b23fd9b19430313b2f5c52bd339c06ab8b48e11d16f9283b7", s"digest $got")
  }

  test("EnsemFDet votes on jd3 at sf=1 (RES, N=80, S=0.1, seed 33) match the pinned digest") {
    val edges = FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(1.0))
    val rows = EnsemFdet.votes(spark, edges, EnsemParams(SampleMethod.RES, n = 80, s = 0.1, seed = 33))
      .collect().map(r => (r.getString(0), r.getLong(1), r.getLong(2))).sortBy(v => (v._1, v._2))
    val got = sha256(rows.iterator.map { case (side, id, n) => s"$side,$id,$n" })
    assert(got == "dc7f705fc72a11450699d454a531aeddc2952cb17adff643c63ce94ec0fdc8ed", s"digest $got (${rows.length} rows)")
  }

  // Patience stops detection once k̂ has held for 3 more blocks, so it may
  // stop before Definition 3's argmin of Δ²φ over all 30 blocks. The blocks
  // it returns are the same either way; only k̂ can differ.
  test("RES samples on jd3 at sf=1: patience k̂ may differ from the full-curve k̂, blocks never do") {
    val edges = FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(1.0))
    val samples = Sampling(SampleMethod.RES, edges, 80, 0.1, 33).collect()
      .groupBy(_.getInt(0)).toSeq.sortBy(_._1)
      .map { case (sid, rs) => sid -> rs.map(r => (r.getLong(1), r.getLong(2))) }
    assert(samples.length == 80)
    val kHats = samples.map { case (sid, es) =>
      val patience = Fdet.run(es, 30, Some(3))
      val full = Fdet.run(es, 30, None)
      assert(patience.blocks.length <= full.blocks.length, s"sid $sid")
      patience.blocks.zip(full.blocks).foreach { case (a, b) =>
        assert(java.util.Arrays.equals(a.uIds, b.uIds) && java.util.Arrays.equals(a.vIds, b.vIds) &&
          java.lang.Double.compare(a.score, b.score) == 0, s"sid $sid: patience blocks are not a prefix")
      }
      sid -> (patience.kHat, Fdet.truncationPoint(full.scores))
    }.toMap
    assert(kHats(6) == (4, 9))
    assert(kHats.count { case (_, (p, f)) => p != f } == 16)
  }

  // Algorithm 1 as printed removes only a block's internal edges, so a later
  // block may reuse nodes of an earlier one; an edge, once inside a block, is
  // gone. Round r must therefore remove exactly the edges inside block r's
  // node sets that no earlier block's node sets contain.
  test("FRAUDAR K=30 on jd1 at sf=1: blocks share nodes but no edge lies inside two blocks") {
    val es = edgesOf(FraudGraphGen.Jd1)
    val blocks = Fraudar.run(es, 30).blocks
    def inTwo(ids: Seq[Array[Long]]): Boolean =
      ids.flatMap(_.toSeq).groupBy(identity).exists(_._2.size >= 2)
    assert(inTwo(blocks.map(_.uIds)), "no user is in two blocks")
    assert(inTwo(blocks.map(_.vIds)), "no merchant is in two blocks")

    def inside(b: Peeling.Block, e: (Long, Long)) =
      java.util.Arrays.binarySearch(b.uIds, e._1) >= 0 && java.util.Arrays.binarySearch(b.vIds, e._2) >= 0
    val g = LocalGraph.fromEdges(es)
    assert(g.numEdges == es.length, "the generated edges are distinct")
    var left = es
    for ((b, r) <- blocks.zipWithIndex) {
      val (in, out) = left.partition(inside(b, _))
      assert(in.nonEmpty, s"round $r: block has no edge of its own")
      assert(g.removeBlockEdges(b) == in.length, s"round $r: removal count")
      left = out
    }
  }
}
