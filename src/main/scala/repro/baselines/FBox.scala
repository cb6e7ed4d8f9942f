package repro.baselines

import repro.core.LocalGraph

/** FBOX baseline [31] (Shah et al.).
  *
  * FBOX takes the adversarial view: attacks small enough to evade the top-k
  * SVD components live almost entirely in the *residual*. A user whose row
  * a_u has non-trivial degree but a small projection onto the top-k right
  * singular subspace is "below the spectral radar" and flagged.
  *
  * Row u of A = UΣVᵀ projected onto span(v_1..v_k) has squared norm
  * Σ_k (σ_k · U_k[u])², and ‖a_u‖² = degree(u) for a 0/1 adjacency. The
  * suspiciousness score is 1 − ‖proj a_u‖ / ‖a_u‖ for users with degree ≥
  * MinDegree (degree-1 users carry no signal), ranked descending.
  */
object FBox {

  val DefaultComponents = 25
  val MinDegree = 2

  /** Per-user suspiciousness score in [0, 1], higher = more suspicious. */
  def userScores(edges: Array[(Long, Long)], k: Int = DefaultComponents): Seq[(Long, Double)] = {
    require(edges.nonEmpty, "empty graph")
    val g = LocalGraph.fromEdges(edges)
    val svd = SparseSvd.compute(g, k)
    val deg = g.uDegrees
    g.uIds.indices.map { i =>
      if (deg(i) < MinDegree) (g.uIds(i), 0.0)
      else {
        var projSq = 0.0
        var c = 0
        while (c < svd.rank) {
          val t = svd.s(c) * svd.u(c)(i)
          projSq += t * t
          c += 1
        }
        val ratio = math.min(1.0, math.sqrt(projSq / deg(i)))
        (g.uIds(i), 1.0 - ratio)
      }
    }
  }
}
