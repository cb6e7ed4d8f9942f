package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{Fdet, FdetResult, Peeling}

/** FRAUDAR baseline [13] (Hooi et al.), extended to K blocks exactly as the
  * EnsemFDet paper runs it: greedy log-weighted peeling on the FULL graph,
  * remove the detected block's edges, repeat K times (K fixed, no
  * truncation). The heuristic is inherently sequential — it runs on a single
  * driver core, which is the property Table III's timing contrast exercises.
  */
object Fraudar {

  /** Run FRAUDAR with a fixed number of blocks K. */
  def run(edges: Array[(Long, Long)], k: Int = 30): FdetResult =
    Fdet.run(edges, maxBlocks = k, elbowPatience = None)

  /** Cumulative detected-user sets after 1..K blocks — FRAUDAR's output is a
    * discrete sequence of operating points (the diamond marks of Figure 4:
    * every node of a detected block is flagged, so the detected count jumps
    * block by block).
    */
  def cumulativeUserSets(result: FdetResult): Seq[Set[Long]] =
    result.blocks
      .scanLeft(Set.empty[Long])((acc, b: Peeling.Block) => acc ++ b.uIds)
      .drop(1)

  /** Driver-side edge collection helper. */
  def collectEdges(edges: DataFrame): Array[(Long, Long)] =
    edges.select("u", "v").collect().map(r => (r.getLong(0), r.getLong(1)))
}
