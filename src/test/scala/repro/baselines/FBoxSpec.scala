package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.LocalGraph

class FBoxSpec extends AnyFunSuite {

  /** FBOX's scores from the top-k SVD of the graph of `es`. */
  private def userScores(es: Array[(Long, Long)], k: Int): Seq[(Long, Double)] = {
    val g = LocalGraph.fromEdges(es)
    FBox.userScores(g, SparseSvd.compute(g, k))
  }

  test("small attack block below the top-k radar is flagged") {
    // Big legit community dominates component 1; a small 4x3 attack block
    // lives in the residual when k = 1.
    val legit = TestGraphs.block(0, 20, 100, 10)
    val attack = TestGraphs.block(5000, 4, 6000, 3)
    val scores = userScores(legit ++ attack, k = 1).toMap
    val attackMin = (5001L to 5004L).map(scores).min
    val legitMax = (1L to 20L).map(scores).max
    assert(attackMin > 0.9, s"attack users should be almost fully residual, got $attackMin")
    assert(legitMax < 0.1, s"legit users should be captured by top-1, got $legitMax")
  }

  test("users below minDegree score zero") {
    val es = TestGraphs.block(0, 5, 100, 4) ++ TestGraphs.pairs(1000, 2000, 10)
    val scores = userScores(es, k = 2).toMap
    (1001L to 1010L).foreach(u => assert(scores(u) == 0.0))
  }

  test("scores live in [0, 1]") {
    val es = TestGraphs.block(0, 8, 100, 4) ++ TestGraphs.pairs(50, 200, 12)
    assert(userScores(es, k = 3).forall { case (_, s) => s >= 0.0 && s <= 1.0 })
  }

  test("a rank-1 graph fully captured by k=1 has ~zero scores") {
    val es = TestGraphs.block(0, 10, 100, 5)
    val scores = userScores(es, k = 1)
    assert(scores.forall(_._2 < 1e-5))
  }

  test("every input user gets a score") {
    val es = TestGraphs.block(0, 6, 100, 3) ++ TestGraphs.pairs(50, 200, 8)
    assert(userScores(es, k = 2).map(_._1).toSet == es.map(_._1).toSet)
  }

  test("deterministic for a fixed seed") {
    val es = TestGraphs.block(0, 8, 100, 4) ++ TestGraphs.pairs(50, 200, 10)
    assert(userScores(es, k = 3) == userScores(es, k = 3))
  }
}
