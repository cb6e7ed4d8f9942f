package repro.core

/** The paper's density score φ (Definition 2), read as FRAUDAR's [13]
  * camouflage-resistant column-weighted metric it cites:
  *
  *   φ(S) = ( Σ_{(i,j) ∈ E(S)} 1 / log(d_j + c) ) / (|U_S| + |V_S|)
  *
  * where d_j is the degree of merchant j in the graph FDET was handed.
  * High-degree merchants are down-weighted so fraudsters cannot hide behind
  * popular shops (camouflage). Definition 2 as literally printed (a sum over
  * merchant *nodes*, not edges) is degenerate — see DESIGN.md §1.
  *
  * `c = 5` matches the FRAUDAR reference implementation's `log(x + 5)`.
  */
object DensityMetric {

  /** Constant inside the log; keeps the denominator away from 0 (Def. 2). */
  val DefaultC: Double = 5.0

  /** Per-merchant edge weight w_j = 1 / log(d_j + c), aligned with g.vIds. */
  def merchantWeights(g: LocalGraph): Array[Double] = {
    val out = new Array[Double](g.numV)
    var j = 0
    while (j < g.numV) { out(j) = 1.0 / math.log(g.vDeg(j) + DefaultC); j += 1 }
    out
  }

  /** φ of the whole graph under fixed per-merchant weights. */
  def phi(g: LocalGraph, weights: Array[Double]): Double = {
    if (g.numNodes == 0) return 0.0
    var f = 0.0
    var j = 0
    while (j < g.numV) { f += g.vDeg(j) * weights(j); j += 1 }
    f / g.numNodes
  }

  /** φ with weights derived from g itself. */
  def phi(g: LocalGraph): Double = phi(g, merchantWeights(g))
}
