package repro.baselines

import repro.core.LocalGraph

/** SPOKEN baseline [30] (Prakash et al., EigenSpokes).
  *
  * SPOKEN observes that in EE-plots (pairs of singular vectors) fraudulent
  * lockstep groups concentrate on axis-aligned "spokes": a node involved in a
  * dense block has a large-magnitude coordinate in some top singular vector
  * while normal nodes stay near the origin. Following the paper's setup we
  * use the top 25 components. We score each user by its maximum σ-weighted
  * participation max_k |σ_k · U_k[u]| (the length of the row's projection
  * along component k — σ-weighting keeps degenerate rank-1 components from
  * isolated edges, which have σ = 1 and indicator singular vectors, from
  * outranking real spokes) and rank descending — the continuous-score
  * reading used for PR/ROC comparison in the EnsemFDet evaluation (Fig. 3).
  */
object Spoken {

  val DefaultComponents = 25

  /** Per-user suspiciousness score, higher = more suspicious. */
  def userScores(edges: Array[(Long, Long)], r: Int = DefaultComponents): Seq[(Long, Double)] = {
    require(edges.nonEmpty, "empty graph")
    val g = LocalGraph.fromEdges(edges)
    val svd = SparseSvd.compute(g, r)
    g.uIds.indices.map { i =>
      var best = 0.0
      var c = 0
      while (c < svd.rank) {
        val a = math.abs(svd.s(c) * svd.u(c)(i))
        if (a > best) best = a
        c += 1
      }
      (g.uIds(i), best)
    }
  }
}
