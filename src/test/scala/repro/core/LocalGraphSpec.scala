package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSpec, TestGraphs}

class LocalGraphSpec extends AnyFunSuite with PropSpec {

  private val triangleish = Array((1L, 10L), (1L, 11L), (2L, 10L))

  test("fromEdges builds the right node sets") {
    val g = LocalGraph.fromEdges(triangleish)
    assert(g.uIds.toSeq == Seq(1L, 2L))
    assert(g.vIds.toSeq == Seq(10L, 11L))
    assert(g.numU == 2 && g.numV == 2 && g.numNodes == 4)
  }

  test("fromEdges builds symmetric adjacency") {
    val g = LocalGraph.fromEdges(triangleish)
    assert(g.uAdj(0).toSet == Set(0, 1)) // user 1 -> merchants 10, 11
    assert(g.uAdj(1).toSet == Set(0))    // user 2 -> merchant 10
    assert(g.vAdj(0).toSet == Set(0, 1)) // merchant 10 <- users 1, 2
    assert(g.vAdj(1).toSet == Set(0))
  }

  test("duplicate edges are collapsed") {
    val g = LocalGraph.fromEdges(triangleish ++ triangleish)
    assert(g.numEdges == 3)
    assert(g.vDegrees.toSeq == Seq(2, 1))
  }

  test("numEdges counts distinct edges") {
    assert(LocalGraph.fromEdges(triangleish).numEdges == 3)
  }

  test("degrees of a complete block") {
    val g = LocalGraph.fromEdges(TestGraphs.block(0, 4, 100, 3))
    assert(g.uDegrees.forall(_ == 3))
    assert(g.vDegrees.forall(_ == 4))
  }

  test("single edge graph") {
    val g = LocalGraph.fromEdges(Array((7L, 9L)))
    assert(g.numNodes == 2 && g.numEdges == 1)
    assert(g.uIds.toSeq == Seq(7L) && g.vIds.toSeq == Seq(9L))
  }

  test("empty edge list gives empty graph") {
    val g = LocalGraph.fromEdges(Array.empty[(Long, Long)])
    assert(g.numNodes == 0 && g.numEdges == 0)
  }

  test("node ids are sorted") {
    val g = LocalGraph.fromEdges(Array((5L, 20L), (1L, 30L), (3L, 10L)))
    assert(g.uIds.toSeq == g.uIds.toSeq.sorted)
    assert(g.vIds.toSeq == g.vIds.toSeq.sorted)
  }

  private val edgeListGen: Gen[Array[(Long, Long)]] =
    Gen.nonEmptyListOf(
      for { u <- Gen.choose(1L, 12L); v <- Gen.choose(100L, 112L) } yield (u, v)
    ).map(_.toArray)

  checkProp("degree sums on both sides equal the edge count") {
    Prop.forAll(edgeListGen) { es =>
      val g = LocalGraph.fromEdges(es)
      g.uDegrees.map(_.toLong).sum == g.numEdges &&
        g.vDegrees.map(_.toLong).sum == g.numEdges
    }
  }

  checkProp("adjacency is symmetric: u->v iff v->u") {
    Prop.forAll(edgeListGen) { es =>
      val g = LocalGraph.fromEdges(es)
      (0 until g.numU).forall(i =>
        g.uAdj(i).forall(j => g.vAdj(j).contains(i))) &&
        (0 until g.numV).forall(j =>
          g.vAdj(j).forall(i => g.uAdj(i).contains(j)))
    }
  }

  checkProp("every distinct input edge appears exactly once") {
    Prop.forAll(edgeListGen) { es =>
      val g = LocalGraph.fromEdges(es)
      g.numEdges == es.distinct.length
    }
  }

  checkProp("node sets match the edge endpoints") {
    Prop.forAll(edgeListGen) { es =>
      val g = LocalGraph.fromEdges(es)
      g.uIds.toSet == es.map(_._1).toSet && g.vIds.toSet == es.map(_._2).toSet
    }
  }

  // --- removeBlockEdges ---------------------------------------------------

  /** A graph and a block whose ids are drawn from its nodes, ascending. */
  private val graphAndBlockGen: Gen[(Array[(Long, Long)], Peeling.Block)] =
    for {
      es <- edgeListGen
      us <- Gen.someOf(es.map(_._1).distinct.toSeq)
      vs <- Gen.someOf(es.map(_._2).distinct.toSeq)
    } yield (es, Peeling.Block(us.sorted.toArray, vs.sorted.toArray, 0.0))

  private def outside(es: Array[(Long, Long)], b: Peeling.Block): Array[(Long, Long)] =
    es.filter { case (u, v) => !(b.uIds.contains(u) && b.vIds.contains(v)) }

  /** (id, degree) of every node that still has an edge. */
  private def liveDegrees(ids: Array[Long], deg: Array[Int]): Seq[(Long, Int)] =
    ids.toSeq.zip(deg.toSeq).filter(_._2 > 0)

  checkProp("after removeBlockEdges the graph reads like fromEdges of the edges left") {
    Prop.forAll(graphAndBlockGen) { case (es, b) =>
      val g = LocalGraph.fromEdges(es)
      g.removeBlockEdges(b)
      val fresh = LocalGraph.fromEdges(outside(es, b))
      g.numEdges == fresh.numEdges && g.numNodes == fresh.numNodes &&
        liveDegrees(g.uIds, g.uDegrees) == fresh.uIds.toSeq.zip(fresh.uDegrees.toSeq) &&
        liveDegrees(g.vIds, g.vDegrees) == fresh.vIds.toSeq.zip(fresh.vDegrees.toSeq) &&
        java.lang.Double.compare(DensityMetric.phi(g), DensityMetric.phi(fresh)) == 0
    }
  }

  checkProp("removeBlockEdges keeps adjacency order and touches only block nodes") {
    Prop.forAll(graphAndBlockGen) { case (es, b) =>
      val g = LocalGraph.fromEdges(es)
      val (uBefore, vBefore) = (g.uAdj.map(_.clone), g.vAdj.map(_.clone))
      g.removeBlockEdges(b)
      val inU = g.uIds.map(b.uIds.contains)
      val inV = g.vIds.map(b.vIds.contains)
      g.uAdj.indices.forall(i => g.uAdj(i).toSeq == uBefore(i).filterNot(j => inU(i) && inV(j)).toSeq) &&
        g.vAdj.indices.forall(j => g.vAdj(j).toSeq == vBefore(j).filterNot(i => inU(i) && inV(j)).toSeq)
    }
  }

  checkProp("removeBlockEdges returns the distinct edges it removed; a second call removes none") {
    Prop.forAll(graphAndBlockGen) { case (es, b) =>
      val g = LocalGraph.fromEdges(es)
      val inside = es.distinct.length - outside(es, b).distinct.length
      g.removeBlockEdges(b) == inside && g.removeBlockEdges(b) == 0
    }
  }

  test("removing a whole graph's edges leaves no node") {
    val g = LocalGraph.fromEdges(triangleish)
    assert(g.removeBlockEdges(Peeling.Block(g.uIds, g.vIds, 0.0)) == 3)
    assert(g.numEdges == 0 && g.numNodes == 0 && g.numU == 2 && g.numV == 2)
    assert(g.uAdj.forall(_.isEmpty) && g.vAdj.forall(_.isEmpty))
  }
}
