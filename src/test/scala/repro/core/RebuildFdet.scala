package repro.core

/** Reference FDET for `FdetOracleSpec`: the kernel as it was before `Fdet.run`
  * built its graph once. Every round rebuilds `LocalGraph` from the edges
  * that are left and filters the edge array against the block's id sets.
  * Nothing but the oracle test uses it.
  */
object RebuildFdet {

  def run(
      edges: Array[(Long, Long)],
      maxBlocks: Int = 30,
      elbowPatience: Option[Int] = Some(Fdet.DefaultPatience)): FdetResult = {
    require(maxBlocks >= 1, "maxBlocks must be >= 1")
    var current = edges
    val blocks = Vector.newBuilder[Peeling.Block]
    val scores = Vector.newBuilder[Double]
    var scoresSoFar = Vector.empty[Double]
    var done = false
    var nBlocks = 0
    while (!done && nBlocks < maxBlocks && current.nonEmpty) {
      val g = LocalGraph.fromEdges(current)
      // Weights are recomputed on the *current* graph: each round is "compute
      // the densest subgraph in the current graph G" (Section IV-B).
      val w = DensityMetric.merchantWeights(g)
      val b = Peeling.densestBlock(g, w)
      blocks += b
      scores += b.score
      scoresSoFar :+= b.score
      nBlocks += 1

      val us = b.uIds.toSet
      val vs = b.vIds.toSet
      // "remove edges in previously detected subgraphs from the current graph"
      val next = current.filter { case (u, v) => !(us(u) && vs(v)) }
      // Degenerate guard: a block that removes nothing would loop forever.
      current = if (next.length == current.length) Array.empty else next

      elbowPatience.foreach { p =>
        val kh = Fdet.truncationPoint(scoresSoFar)
        if (nBlocks >= kh + p) done = true
      }
    }
    val s = scores.result()
    FdetResult(blocks.result(), Fdet.truncationPoint(s))
  }
}
