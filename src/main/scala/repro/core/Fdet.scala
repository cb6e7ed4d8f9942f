package repro.core

/** Result of running FDET (Algorithm 1) on one graph.
  *
  * @param blocks    all detected blocks, in detection order (1st = densest)
  * @param kHat      the truncation point k̂ (Definition 3), 1-based count
  */
final case class FdetResult(blocks: IndexedSeq[Peeling.Block], kHat: Int) {

  /** φ(G(S_i)) for each block, in detection order. */
  def scores: IndexedSeq[Double] = blocks.map(_.score)

  /** Blocks surviving truncation, i.e. the first k̂. */
  def truncatedBlocks: IndexedSeq[Peeling.Block] = blocks.take(kHat)

  /** Union of user ids over the given blocks. */
  def userSet(truncated: Boolean): Set[Long] =
    (if (truncated) truncatedBlocks else blocks).iterator.flatMap(_.uIds).toSet

  /** Union of merchant ids over the given blocks. */
  def merchantSet(truncated: Boolean): Set[Long] =
    (if (truncated) truncatedBlocks else blocks).iterator.flatMap(_.vIds).toSet
}

/** FDET (Algorithm 1): iteratively extract the densest block, remove its
  * internal edges from the graph, and repeat; stop via the truncating point
  * k̂ = argmin_i Δ²φ(G(S_i)) (Definition 3, the elbow of the block-score
  * curve) or after `maxBlocks`.
  *
  * The `LocalGraph` is built once per run. Each block's internal edges are
  * then removed in place, so a round costs one peel plus O(Σ block-node
  * degree) for the removal, with no rebuild and no pass over all edges.
  */
object Fdet {

  /** Run FDET on an edge list.
    *
    * @param edges             (user, merchant) pairs; duplicates collapsed
    * @param maxBlocks         hard cap on detected blocks (paper: few tens)
    * @param elbowPatience     if Some(p): stop detecting once the current
    *                          elbow k̂ has been stable for p further blocks —
    *                          the paper's "until argmin Δ²φ" with lookahead.
    *                          None detects exactly `maxBlocks` (FIX-K mode).
    */
  def run(
      edges: Array[(Long, Long)],
      maxBlocks: Int = 30,
      elbowPatience: Option[Int] = Some(3)): FdetResult =
    runOn(LocalGraph.fromEdges(edges), maxBlocks, elbowPatience)

  /** `run` on an already built graph, which it consumes: each block's edges
    * are removed from `g`.
    */
  private[core] def runOn(g: LocalGraph, maxBlocks: Int, elbowPatience: Option[Int]): FdetResult = {
    require(maxBlocks >= 1, "maxBlocks must be >= 1")
    var blocks = Vector.empty[Peeling.Block]
    var done = false
    while (!done && blocks.length < maxBlocks && g.numEdges > 0) {
      // Weights are recomputed on the *current* graph: each round is "compute
      // the densest subgraph in the current graph G" (Section IV-B).
      val w = DensityMetric.merchantWeights(g)
      val b = Peeling.densestBlock(g, w)
      blocks :+= b

      // "remove edges in previously detected subgraphs from the current graph".
      // Degenerate guard: a block that removes nothing would loop forever.
      if (g.removeBlockEdges(b) == 0) done = true

      elbowPatience.foreach { p =>
        if (blocks.length >= truncationPoint(blocks.map(_.score)) + p) done = true
      }
    }
    FdetResult(blocks, truncationPoint(blocks.map(_.score)))
  }

  /** Definition 3: k̂ = argmin_i Δ²φ(G(S_i)) with
    * Δ²φ(i) = φ(i+1) − 2φ(i) + φ(i−1) (second-order finite difference).
    * Only interior points have a defined Δ²; with ≤ 2 blocks, keep them all.
    * Returned value is the 1-based number of blocks to keep.
    */
  def truncationPoint(scores: Seq[Double]): Int = {
    val k = scores.length
    if (k <= 2) return k
    var bestI = 1
    var bestD = Double.MaxValue
    var i = 1
    while (i < k - 1) {
      val d2 = scores(i + 1) - 2 * scores(i) + scores(i - 1)
      if (d2 < bestD) { bestD = d2; bestI = i }
      i += 1
    }
    bestI + 1 // block index i (0-based) -> keep blocks 1..i+1
  }
}
