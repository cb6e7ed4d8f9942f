package repro.eval

import repro.SparkSpec
import repro.core.{EnsemFdet, EnsemParams, Fdet, SampleMethod, Sampling}
import repro.data.FraudGraphGen

/** Figure 6's k̂ column describes the samples the truncated ensemble votes on. */
class Figure6Spec extends SparkSpec {

  test("truncationComparison lists k̂ of each of the N samples the truncated variant votes on") {
    val (sf, n, s, fixK) = (0.1, 10, 0.2, 10)
    val rows = Experiments.truncationComparison(spark, sf, n, s, fixK)

    val spec = FraudGraphGen.Jd3.scaled(sf)
    val edges = FraudGraphGen.edges(spark, spec)
    val results = Sampling(SampleMethod.RES, edges, n, s, spec.seed).collect()
      .groupBy(_.getInt(0)).toSeq.sortBy(_._1)
      .map { case (_, rs) => Fdet.run(rs.map(r => (r.getLong(1), r.getLong(2))), maxBlocks = fixK) }
    assert(results.length == n)
    assert(rows.head.blocksPerSample == results.map(_.kHat))

    // The same samples' truncated user sets give the ensemble's user votes.
    val votes = EnsemFdet.votes(spark, edges,
      EnsemParams(SampleMethod.RES, n = n, s = s, maxBlocks = fixK, seed = spec.seed))
    val expected = results.flatMap(_.userSet(truncated = true)).groupBy(identity)
      .map { case (u, vs) => (u, vs.size.toLong) }
    assert(Metrics.collectUserVotes(votes).toMap == expected)
  }
}
