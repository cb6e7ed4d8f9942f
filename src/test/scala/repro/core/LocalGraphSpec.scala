package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSpec, TestGraphs}

class LocalGraphSpec extends AnyFunSuite with PropSpec {

  private val triangleish = Array((1L, 10L), (1L, 11L), (2L, 10L))

  /** User i's live merchant indices, read from its slice. */
  private def uAdj(g: LocalGraph, i: Int): Array[Int] = g.uNbr.slice(g.uOff(i), g.uOff(i) + g.uDeg(i))

  /** Merchant j's live user indices, read from its slice. */
  private def vAdj(g: LocalGraph, j: Int): Array[Int] = g.vNbr.slice(g.vOff(j), g.vOff(j) + g.vDeg(j))

  test("fromEdges builds the right node sets") {
    val g = LocalGraph.fromEdges(triangleish)
    assert(g.uIds.toSeq == Seq(1L, 2L))
    assert(g.vIds.toSeq == Seq(10L, 11L))
    assert(g.numU == 2 && g.numV == 2 && g.numNodes == 4)
  }

  test("fromEdges builds symmetric adjacency") {
    val g = LocalGraph.fromEdges(triangleish)
    assert(uAdj(g, 0).toSet == Set(0, 1)) // user 1 -> merchants 10, 11
    assert(uAdj(g, 1).toSet == Set(0))    // user 2 -> merchant 10
    assert(vAdj(g, 0).toSet == Set(0, 1)) // merchant 10 <- users 1, 2
    assert(vAdj(g, 1).toSet == Set(0))
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
        uAdj(g, i).forall(j => vAdj(g, j).contains(i))) &&
        (0 until g.numV).forall(j =>
          vAdj(g, j).forall(i => uAdj(g, i).contains(j)))
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
      val (uBefore, vBefore) = (Array.tabulate(g.numU)(uAdj(g, _)), Array.tabulate(g.numV)(vAdj(g, _)))
      g.removeBlockEdges(b)
      val inU = g.uIds.map(b.uIds.contains)
      val inV = g.vIds.map(b.vIds.contains)
      (0 until g.numU).forall(i => uAdj(g, i).toSeq == uBefore(i).filterNot(j => inU(i) && inV(j)).toSeq) &&
        (0 until g.numV).forall(j => vAdj(g, j).toSeq == vBefore(j).filterNot(i => inU(i) && inV(j)).toSeq)
    }
  }

  checkProp("removeBlockEdges returns the distinct edges it removed; a second call removes none") {
    Prop.forAll(graphAndBlockGen) { case (es, b) =>
      val g = LocalGraph.fromEdges(es)
      val inside = es.distinct.length - outside(es, b).distinct.length
      g.removeBlockEdges(b) == inside && g.removeBlockEdges(b) == 0
    }
  }

  checkProp("removeBlockEdges of a block given in shuffled id order equals removing it sorted") {
    Prop.forAll(graphAndBlockGen, Gen.long) { case ((es, b), seed) =>
      val rnd = new scala.util.Random(seed)
      val shuffled = Peeling.Block(rnd.shuffle(b.uIds.toSeq).toArray, rnd.shuffle(b.vIds.toSeq).toArray, 0.0)
      val (g, ref) = (LocalGraph.fromEdges(es), LocalGraph.fromEdges(es))
      g.removeBlockEdges(shuffled) == ref.removeBlockEdges(b) && layout(g) == layout(ref)
    }
  }

  test("removing a whole graph's edges leaves no node") {
    val g = LocalGraph.fromEdges(triangleish)
    assert(g.removeBlockEdges(Peeling.Block(g.uIds, g.vIds, 0.0)) == 3)
    assert(g.numEdges == 0 && g.numNodes == 0 && g.numU == 2 && g.numV == 2)
    assert((0 until g.numU).forall(uAdj(g, _).isEmpty) && (0 until g.numV).forall(vAdj(g, _).isEmpty))
  }

  // --- oracle: the nested-array graph in NestedLocalGraph -----------------

  // Random edges (with repeats) and hub stars, in a shuffled order with some
  // rows duplicated.
  private val richEdgesGen: Gen[Array[(Long, Long)]] = {
    val randomEdges = Gen.listOf(
      for { u <- Gen.choose(1L, 30L); v <- Gen.choose(100L, 120L) } yield (u, v))
    val hub = for {
      v <- Gen.choose(100L, 125L); uBase <- Gen.choose(0L, 60L); n <- Gen.choose(2, 40)
    } yield TestGraphs.star(v, uBase, n)
    for {
      rnd <- randomEdges
      hubs <- Gen.choose(0, 2).flatMap(Gen.listOfN(_, hub))
      nDup <- Gen.choose(0, 20)
      seed <- Gen.long
    } yield {
      val es = rnd ++ hubs.flatten
      new scala.util.Random(seed).shuffle(es ++ es.take(nDup)).toArray
    }
  }

  /** A block of some of `es`'s nodes, ids ascending. */
  private def blockOf(es: Array[(Long, Long)]): Gen[Peeling.Block] =
    for {
      us <- Gen.someOf(es.map(_._1).distinct.toSeq)
      vs <- Gen.someOf(es.map(_._2).distinct.toSeq)
    } yield Peeling.Block(us.sorted.toArray, vs.sorted.toArray, 0.0)

  /** Edges and up to eight removals: Some(b) removes a random block b, None
    * the block the peel finds in the current graph.
    */
  private val removalsGen: Gen[(Array[(Long, Long)], List[Option[Peeling.Block]])] =
    for {
      es <- richEdgesGen
      steps <- Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.option(blockOf(es))))
    } yield (es, steps)

  /** What a reader sees of a graph: ids, live degrees, each node's live
    * neighbours in order, and the edge and node counts.
    */
  private def view(g: LocalGraph): Seq[Any] =
    Seq(g.uIds.toSeq, g.vIds.toSeq, g.uDegrees.toSeq, g.vDegrees.toSeq,
      (0 until g.numU).map(uAdj(g, _).toSeq), (0 until g.numV).map(vAdj(g, _).toSeq),
      g.numEdges, g.numNodes)

  private def view(g: NestedLocalGraph): Seq[Any] =
    Seq(g.uIds.toSeq, g.vIds.toSeq, g.uDegrees.toSeq, g.vDegrees.toSeq,
      g.uAdj.map(_.toSeq).toSeq, g.vAdj.map(_.toSeq).toSeq,
      g.numEdges, g.numNodes)

  checkProp("equals the nested-array reference after fromEdges and every removal", 300) {
    Prop.forAll(removalsGen) { case (es, steps) =>
      val g = LocalGraph.fromEdges(es)
      val ref = NestedLocalGraph.fromEdges(es)
      val firstBad = if (view(g) != view(ref)) Some("fromEdges") else
        steps.iterator.zipWithIndex.map { case (step, r) =>
          val b = step.getOrElse(
            if (g.numEdges == 0) Peeling.Block(Array.empty, Array.empty, 0.0)
            else Peeling.densestBlock(g, DensityMetric.merchantWeights(g)))
          val (got, want) = (g.removeBlockEdges(b), ref.removeBlockEdges(b))
          Option.when(got != want)(s"removal $r returned $got, reference $want")
            .orElse(Option.when(view(g) != view(ref))(s"graphs differ after removal $r"))
        }.collectFirst { case Some(d) => d }
      Prop(firstBad.isEmpty) :| s"${firstBad.getOrElse("")} (${es.length} edges)"
    }
  }

  /** Every array and count of a graph, slice offsets included. */
  private def layout(g: LocalGraph): Seq[Any] =
    Seq(g.uIds.toSeq, g.vIds.toSeq, g.uOff.toSeq, g.uDeg.toSeq, g.uNbr.toSeq,
      g.vOff.toSeq, g.vDeg.toSeq, g.vNbr.toSeq, g.numEdges, g.numNodes)

  checkProp("fromColumns(us, vs) is structurally equal to fromEdges(us zip vs)") {
    Prop.forAll(richEdgesGen) { es =>
      val (us, vs) = (es.map(_._1), es.map(_._2))
      layout(LocalGraph.fromColumns(us, vs)) == layout(LocalGraph.fromEdges(us.zip(vs)))
    }
  }

  test("fromColumns rejects columns of unequal length") {
    assertThrows[IllegalArgumentException](LocalGraph.fromColumns(Array(1L, 2L), Array(10L)))
    assertThrows[IllegalArgumentException](LocalGraph.fromColumns(Array.empty, Array(10L)))
  }

  checkProp("shuffled and duplicated edges give the same graph and FDET result") {
    Prop.forAll(richEdgesGen, Gen.long, Gen.choose(0, 30)) { (es, seed, nDup) =>
      val moved = new scala.util.Random(seed).shuffle((es ++ es.take(nDup)).toSeq).toArray
      val (a, b) = (Fdet.run(es), Fdet.run(moved))
      view(LocalGraph.fromEdges(es)) == view(LocalGraph.fromEdges(moved)) &&
        a.kHat == b.kHat && a.blocks.length == b.blocks.length &&
        a.blocks.zip(b.blocks).forall { case (x, y) =>
          x.uIds.sameElements(y.uIds) && x.vIds.sameElements(y.vIds) &&
            java.lang.Double.compare(x.score, y.score) == 0
        }
    }
  }
}
