package repro.baselines

import repro.{SparkSpec, TestGraphs}

class FraudarSpec extends SparkSpec {

  private val planted =
    TestGraphs.block(0, 15, 100, 6) ++
      TestGraphs.block(1000, 15, 2000, 6, 4) ++
      TestGraphs.pairs(50000, 60000, 40)

  test("recovers planted rings with a fixed K") {
    val r = Fraudar.run(planted, k = 5)
    val users = r.userSet(truncated = false)
    assert((1L to 15L).forall(users) && (1001L to 1015L).forall(users))
  }

  test("detects exactly K blocks when edges remain") {
    // The degree-1 noise peels away as a single block, so this graph holds
    // three blocks total (two rings + noise); K=2 must stop after two.
    assert(Fraudar.run(planted, k = 2).blocks.length == 2)
    assert(Fraudar.run(planted, k = 30).blocks.length <= 30)
  }

  test("cumulative user sets are nondecreasing and nested") {
    val r = Fraudar.run(planted, k = 5)
    val sets = Fraudar.cumulativeUserSets(r)
    assert(sets.length == r.blocks.length)
    sets.sliding(2).foreach {
      case Seq(a, b) => assert(a.subsetOf(b))
      case _ =>
    }
  }

  test("cumulative sets make discrete jumps (the Figure 4 polyline)") {
    val r = Fraudar.run(planted, k = 3)
    val sizes = Fraudar.cumulativeUserSets(r).map(_.size)
    assert(sizes.head >= 15) // a whole block is flagged at once
  }

  test("collectEdges round-trips the edge list") {
    import spark.implicits._
    val df = planted.toSeq.toDF("u", "v")
    assert(Fraudar.collectEdges(df).toSet == planted.toSet)
  }

  test("never truncates: kHat is ignored by construction") {
    val r = Fraudar.run(planted, k = 6)
    assert(r.blocks.length == math.min(6, r.blocks.length))
    assert(r.userSet(truncated = false).size >= r.userSet(truncated = true).size)
  }
}
