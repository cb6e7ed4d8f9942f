package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.LocalGraph

class SpokenSpec extends AnyFunSuite {

  /** SPOKEN's scores from the top-r SVD of the graph of `es`. */
  private def userScores(es: Array[(Long, Long)], r: Int): Seq[(Long, Double)] = {
    val g = LocalGraph.fromEdges(es)
    Spoken.userScores(g, SparseSvd.compute(g, r))
  }

  test("users of a planted dense block outscore degree-1 background users") {
    val es = TestGraphs.block(0, 10, 100, 5) ++ TestGraphs.pairs(1000, 2000, 30)
    val scores = userScores(es, r = 5).toMap
    val blockScore = (1L to 10L).map(scores).min
    val bgScore = (1001L to 1030L).map(scores).max
    assert(blockScore > bgScore, s"block=$blockScore bg=$bgScore")
  }

  test("rank-1 block: score equals sigma / sqrt(nU)") {
    val es = TestGraphs.block(0, 10, 100, 5) // complete 10x5, sigma = sqrt(50)
    val scores = userScores(es, r = 2).toMap
    val expected = math.sqrt(50.0) / math.sqrt(10.0)
    (1L to 10L).foreach(u => assert(math.abs(scores(u) - expected) < 1e-5))
  }

  test("every input user gets a score") {
    val es = TestGraphs.block(0, 6, 100, 3) ++ TestGraphs.pairs(50, 200, 8)
    val scores = userScores(es, r = 4)
    assert(scores.map(_._1).toSet == es.map(_._1).toSet)
  }

  test("scores are non-negative") {
    val es = TestGraphs.block(0, 6, 100, 3) ++ TestGraphs.pairs(50, 200, 8)
    assert(userScores(es, r = 4).forall(_._2 >= 0.0))
  }

  test("r is capped by the matrix rank without error") {
    val es = TestGraphs.pairs(0, 100, 3)
    val scores = userScores(es, r = 25)
    assert(scores.size == 3)
  }

  test("deterministic for a fixed seed") {
    val es = TestGraphs.block(0, 8, 100, 4) ++ TestGraphs.pairs(50, 200, 10)
    assert(userScores(es, r = 5) == userScores(es, r = 5))
  }
}
