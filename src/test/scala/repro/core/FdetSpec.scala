package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class FdetSpec extends AnyFunSuite {

  // Three rings of clearly decreasing density plus degree-1 noise.
  private val ring1 = TestGraphs.block(0, 20, 100, 8)        // complete
  private val ring2 = TestGraphs.block(1000, 20, 2000, 8, 5) // 5 edges/user
  private val ring3 = TestGraphs.block(3000, 20, 4000, 8, 3) // 3 edges/user
  private val noise = TestGraphs.pairs(50000, 60000, 60)
  private val planted = ring1 ++ ring2 ++ ring3 ++ noise

  test("extracts the rings in density order") {
    val r = Fdet.run(planted, maxBlocks = 10, elbowPatience = None)
    assert(r.blocks(0).uIds.toSet == (1L to 20L).toSet)
    assert(r.blocks(1).uIds.toSet == (1001L to 1020L).toSet)
    assert(r.blocks(2).uIds.toSet == (3001L to 3020L).toSet)
  }

  test("block scores are recorded in detection order and decrease over the rings") {
    val r = Fdet.run(planted, maxBlocks = 10, elbowPatience = None)
    assert(r.scores.length == r.blocks.length)
    assert(r.scores(0) > r.scores(1) && r.scores(1) > r.scores(2))
  }

  test("truncation keeps the three rings and drops the noise blocks") {
    val r = Fdet.run(planted, maxBlocks = 10, elbowPatience = None)
    assert(r.kHat >= 3, s"kHat=${r.kHat} scores=${r.scores}")
    val kept = r.userSet(truncated = true)
    assert((1L to 20L).forall(kept) && (1001L to 1020L).forall(kept) && (3001L to 3020L).forall(kept))
  }

  test("first two blocks are node-disjoint on the planted graph") {
    val r = Fdet.run(planted, maxBlocks = 5, elbowPatience = None)
    assert(r.blocks(0).uIds.toSet.intersect(r.blocks(1).uIds.toSet).isEmpty)
    assert(r.blocks(0).vIds.toSet.intersect(r.blocks(1).vIds.toSet).isEmpty)
  }

  test("maxBlocks caps the number of blocks") {
    val r = Fdet.run(planted, maxBlocks = 2, elbowPatience = None)
    assert(r.blocks.length == 2)
  }

  test("elbow patience stops detection early") {
    val all = Fdet.run(planted, maxBlocks = 30, elbowPatience = None)
    val early = Fdet.run(planted, maxBlocks = 30, elbowPatience = Some(3))
    assert(early.blocks.length <= all.blocks.length)
    assert(early.blocks.length >= early.kHat)
    // the early-stopped run still recovers all three rings
    val kept = early.userSet(truncated = true)
    assert((1L to 20L).forall(kept) && (1001L to 1020L).forall(kept) && (3001L to 3020L).forall(kept))
  }

  test("elbow patience below 1 is rejected") {
    // After block 1, 1 >= k̂ + p holds for any p <= 0: a one-block run.
    Seq(0, -1).foreach { p =>
      intercept[IllegalArgumentException](Fdet.run(planted, maxBlocks = 30, elbowPatience = Some(p)))
    }
  }

  test("empty input yields no blocks and kHat 0") {
    val r = Fdet.run(Array.empty[(Long, Long)])
    assert(r.blocks.isEmpty && r.scores.isEmpty && r.kHat == 0)
  }

  test("single-edge graph yields one block") {
    val r = Fdet.run(Array((1L, 2L)))
    assert(r.blocks.length == 1 && r.kHat == 1)
  }

  test("a pure-noise graph still terminates") {
    val r = Fdet.run(noise, maxBlocks = 50, elbowPatience = None)
    assert(r.blocks.nonEmpty)
  }

  test("userSet/merchantSet union blocks correctly") {
    val r = Fdet.run(ring1 ++ ring2, maxBlocks = 2, elbowPatience = None)
    assert(r.userSet(truncated = false) == (1L to 20L).toSet ++ (1001L to 1020L).toSet)
    assert(r.merchantSet(truncated = false) == (101L to 108L).toSet ++ (2001L to 2008L).toSet)
  }

  test("detected blocks' edges are removed: no edge is inside two blocks") {
    val r = Fdet.run(planted, maxBlocks = 6, elbowPatience = None)
    val es = planted.distinct
    val perBlockEdges = r.blocks.map { b =>
      val us = b.uIds.toSet; val vs = b.vIds.toSet
      es.filter { case (u, v) => us(u) && vs(v) }.toSet
    }
    for (i <- perBlockEdges.indices; j <- 0 until i)
      assert(perBlockEdges(i).intersect(perBlockEdges(j)).isEmpty, s"blocks $j/$i share edges")
  }

  // ---- truncationPoint (Definition 3) unit cases ---------------------------

  test("truncationPoint: sharp drop after a plateau lands on the plateau end") {
    assert(Fdet.truncationPoint(Seq(1.0, 0.95, 0.9, 0.2, 0.19)) == 3)
  }

  test("truncationPoint: drop later in the curve") {
    assert(Fdet.truncationPoint(Seq(1.0, 0.98, 0.96, 0.94, 0.3, 0.29, 0.28)) == 4)
  }

  test("truncationPoint: degenerate lengths keep everything") {
    assert(Fdet.truncationPoint(Seq.empty) == 0)
    assert(Fdet.truncationPoint(Seq(1.0)) == 1)
    assert(Fdet.truncationPoint(Seq(1.0, 0.5)) == 2)
  }

  test("truncationPoint: linear curve has zero second difference everywhere (keeps first interior)") {
    assert(Fdet.truncationPoint(Seq(5.0, 4.0, 3.0, 2.0, 1.0)) == 2)
  }

  test("truncationPoint: never exceeds the number of blocks") {
    val s = Seq(3.0, 2.0, 1.9, 1.8, 0.2)
    assert(Fdet.truncationPoint(s) <= s.length)
  }

  test("truncationPoint picks the most negative second difference") {
    // Δ² at i=1: 0.2-2*2.9+3.0 = -2.6 ; at i=2: 0.19-0.4+2.9 = +2.69
    assert(Fdet.truncationPoint(Seq(3.0, 2.9, 0.2, 0.19)) == 2)
  }
}
