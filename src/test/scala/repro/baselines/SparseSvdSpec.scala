package repro.baselines

import org.apache.spark.mllib.linalg.Vectors
import org.apache.spark.mllib.linalg.distributed.RowMatrix
import repro.SparkSpec
import repro.core.LocalGraph
import repro.data.FraudGraphGen

class SparseSvdSpec extends SparkSpec {

  private def randomEdges(nU: Int, nV: Int, p: Double, seed: Long): Array[(Int, Int)] = {
    val rnd = new scala.util.Random(seed)
    (for { i <- 0 until nU; j <- 0 until nV; if rnd.nextDouble() < p } yield (i, j)).toArray
  }

  /** The graph with edge (i, j) for each index pair: user id i, merchant id j. */
  private def graph(edges: Array[(Int, Int)]): LocalGraph =
    LocalGraph.fromEdges(edges.map { case (i, j) => (i.toLong, j.toLong) })

  private def mllibSingularValues(nU: Int, nV: Int, edges: Array[(Int, Int)], k: Int): Seq[Double] = {
    val byRow = edges.groupBy(_._1)
    val rows: Seq[org.apache.spark.mllib.linalg.Vector] = (0 until nU).map { i =>
      val cols = byRow.getOrElse(i, Array.empty).map(_._2).distinct.sorted
      Vectors.sparse(nV, cols, cols.map(_ => 1.0))
    }
    val mat = new RowMatrix(spark.sparkContext.parallelize(rows, 2))
    mat.computeSVD(k, computeU = false).s.toArray.toSeq
  }

  private def norm(x: Array[Double]) = math.sqrt(x.map(a => a * a).sum)
  private def dot(a: Array[Double], b: Array[Double]) = a.zip(b).map { case (x, y) => x * y }.sum

  for (seed <- Seq(1L, 2L, 3L)) {
    test(s"singular values match MLlib RowMatrix.computeSVD (seed=$seed)") {
      val edges = randomEdges(24, 14, 0.25, seed)
      val ours = SparseSvd.compute(graph(edges), k = 5, seed = seed)
      val ref = mllibSingularValues(24, 14, edges, 5)
      ours.s.zip(ref).zipWithIndex.foreach { case ((a, b), i) =>
        assert(math.abs(a - b) <= 0.03 * math.max(1.0, b), s"sigma($i): ours=$a mllib=$b")
      }
    }
  }

  test("rank-1 complete biclique: sigma = sqrt(nU*nV), uniform singular vectors") {
    val edges = (for { i <- 0 until 8; j <- 0 until 5 } yield (i, j)).toArray
    val svd = SparseSvd.compute(graph(edges), k = 2)
    assert(math.abs(svd.s(0) - math.sqrt(40.0)) < 1e-6)
    assert(svd.s(1) < 1e-6) // rank exhausted
    val u0 = svd.u(0)
    assert(u0.map(math.abs).forall(a => math.abs(a - 1.0 / math.sqrt(8)) < 1e-6))
  }

  test("right singular vectors are orthonormal") {
    val edges = randomEdges(20, 12, 0.3, 9L)
    val svd = SparseSvd.compute(graph(edges), k = 4, seed = 9L)
    for (a <- 0 until 4; b <- 0 until 4) {
      val d = dot(svd.v(a), svd.v(b))
      if (a == b) assert(math.abs(d - 1.0) < 1e-6) else assert(math.abs(d) < 1e-6)
    }
  }

  test("left singular vectors have unit norm for non-zero sigma") {
    val edges = randomEdges(20, 12, 0.3, 10L)
    val svd = SparseSvd.compute(graph(edges), k = 4, seed = 10L)
    svd.s.zip(svd.u).foreach { case (s, u) =>
      if (s > 1e-9) assert(math.abs(norm(u) - 1.0) < 1e-6)
    }
  }

  test("A v_k = sigma_k u_k") {
    val edges = randomEdges(18, 10, 0.3, 11L)
    val g = graph(edges)
    val svd = SparseSvd.compute(g, k = 3, seed = 11L)
    // Rows and columns of the graph are its sorted user and merchant ids.
    val es = edges.distinct.map { case (i, j) =>
      (java.util.Arrays.binarySearch(g.uIds, i.toLong), java.util.Arrays.binarySearch(g.vIds, j.toLong))
    }
    for (k <- 0 until 3 if svd.s(k) > 1e-9) {
      val av = new Array[Double](g.numU)
      es.foreach { case (i, j) => av(i) += svd.v(k)(j) }
      val resid = av.zip(svd.u(k)).map { case (a, u) => a - svd.s(k) * u }
      assert(norm(resid) < 1e-5, s"component $k residual ${norm(resid)}")
    }
  }

  test("singular values are non-increasing") {
    val edges = randomEdges(25, 15, 0.2, 12L)
    val svd = SparseSvd.compute(graph(edges), k = 6, seed = 12L)
    svd.s.toSeq.sliding(2).foreach {
      case Seq(a, b) => assert(a >= b - 1e-6)
      case _ =>
    }
  }

  test("jd3 at sf=1, k=25: sigma non-increasing and within 1e-3 of MLlib") {
    val g = LocalGraph.fromEdges(Fraudar.collectEdges(FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(1.0))))
    val cells = for { i <- 0 until g.numU; a <- g.uOff(i) until g.uOff(i) + g.uDeg(i) } yield (i, g.uNbr(a))
    val ours = SparseSvd.compute(g, k = 25).s
    val ref = mllibSingularValues(g.numU, g.numV, cells.toArray, 25)
    assert(ours.length == 25 && ref.length == 25)
    ours.toSeq.sliding(2).foreach { case Seq(a, b) => assert(a >= b, s"sigma rises: $a then $b") }
    ours.zip(ref).zipWithIndex.foreach { case ((a, b), i) =>
      assert(math.abs(a - b) <= 1e-3 * b, s"sigma($i): ours=$a mllib=$b")
    }
  }

  test("k larger than rank yields trailing ~zero sigmas") {
    // rank-2 matrix: two disjoint complete bicliques
    val edges = (for { i <- 0 until 4; j <- 0 until 3 } yield (i, j)).toArray ++
      (for { i <- 4 until 8; j <- 3 until 6 } yield (i, j))
    val svd = SparseSvd.compute(graph(edges), k = 5)
    assert(svd.s(0) > 1.0 && svd.s(1) > 1.0)
    assert(svd.s.drop(2).forall(_ < 1e-6))
  }

  test("duplicate edges do not change the spectrum") {
    val edges = randomEdges(10, 8, 0.3, 13L)
    val a = SparseSvd.compute(graph(edges), k = 3, seed = 13L)
    val b = SparseSvd.compute(graph(edges ++ edges), k = 3, seed = 13L)
    a.s.zip(b.s).foreach { case (x, y) => assert(math.abs(x - y) < 1e-6) }
  }
}
