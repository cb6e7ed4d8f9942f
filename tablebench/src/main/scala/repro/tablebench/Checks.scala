package repro.tablebench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import org.apache.spark.sql.Row
import repro.core.{DensityMetric, Fdet, FdetResult, LocalGraph, Peeling}

/** Output checks: result digests, the sequential vote oracle and the
  * per-round replay of FDET through its public calls.
  */
object Checks {

  /** One vote-table row: (side, id, votes), as `EnsemFdet.votes` returns it. */
  type Vote = (String, Long, Long)

  /** A collected vote table in canonical (side, id) order. */
  def sortedVotes(rows: Array[Row]): IndexedSeq[Vote] =
    rows.map(r => (r.getString(0), r.getLong(1), r.getLong(2))).sortBy(v => (v._1, v._2)).toIndexedSeq

  def digest(votes: Seq[Vote]): String =
    sha256(votes.iterator.map { case (s, id, n) => s"$s,$id,$n" })

  /** Digest of FDET's blocks, exact scores and k̂. */
  def digest(r: FdetResult): String =
    sha256(r.blocks.iterator.map { b =>
      s"${b.uIds.mkString(" ")}|${b.vIds.mkString(" ")}|${java.lang.Double.doubleToLongBits(b.score)}"
    } ++ Iterator(s"khat=${r.kHat}"))

  private def sha256(lines: Iterator[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes(StandardCharsets.UTF_8)))
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** The vote table Definition 4 gives for per-sample FDET results: one vote
    * per sample whose (truncated) output contains the node.
    */
  def oracleVotes(results: Seq[FdetResult], truncate: Boolean): IndexedSeq[Vote] = {
    val counts = scala.collection.mutable.HashMap.empty[(String, Long), Long]
    for (r <- results) {
      r.userSet(truncate).foreach(id => counts(("u", id)) = counts.getOrElse(("u", id), 0L) + 1)
      r.merchantSet(truncate).foreach(id => counts(("v", id)) = counts.getOrElse(("v", id), 0L) + 1)
    }
    counts.iterator.map { case ((s, id), n) => (s, id, n) }.toIndexedSeq.sortBy(v => (v._1, v._2))
  }

  /** None when the tables are equal row for row, else the first difference. */
  def firstDifference(expected: IndexedSeq[Vote], actual: IndexedSeq[Vote]): Option[String] =
    expected.indices.find(i => i >= actual.length || expected(i) != actual(i)) match {
      case Some(i) => Some(s"row $i: expected ${expected(i)}, got ${actual.lift(i).getOrElse("nothing")}")
      case None if actual.length > expected.length =>
        Some(s"row ${expected.length}: unexpected ${actual(expected.length)}")
      case None => None
    }

  def sameBlock(a: Peeling.Block, b: Peeling.Block): Boolean =
    java.util.Arrays.equals(a.uIds, b.uIds) && java.util.Arrays.equals(a.vIds, b.vIds) &&
      java.lang.Double.compare(a.score, b.score) == 0

  /** Totals of one replay. `mismatch` names the first round that differs. */
  final case class Replay(edgesIn: Long, nodes: Long, phiRelErrMax: Double, mismatch: Option[String])

  /** Replay `expected` round by round through LocalGraph, DensityMetric and
    * Peeling. Round r's input is `edges` minus the internal edges of blocks
    * 0..r-1 (Algorithm 1); each call is a span on `tracer`.
    */
  def replay(edges: Array[(Long, Long)], expected: FdetResult, tracer: Tracer): Replay = {
    var current = edges
    var edgesIn = 0L
    var nodes = 0L
    var errMax = 0.0
    var mismatch = Option.empty[String]
    var r = 0
    while (mismatch.isEmpty && r < expected.blocks.length) {
      val g = tracer.span("localgraph.build")(LocalGraph.fromEdges(current))
      val w = tracer.span("density.weights")(DensityMetric.merchantWeights(g))
      val b = tracer.span("peeling.peel")(Peeling.densestBlock(g, w))
      edgesIn += current.length
      nodes += g.numNodes
      if (!sameBlock(b, expected.blocks(r))) mismatch = Some(s"round $r: block differs from Fdet.run")
      val us = b.uIds.toSet
      val vs = b.vIds.toSet
      val (inside, rest) = current.partition { case (u, v) => us(u) && vs(v) }
      errMax = math.max(errMax, phiRelErr(inside, g, w, b.score))
      current = rest
      r += 1
    }
    if (mismatch.isEmpty && Fdet.truncationPoint(expected.scores) != expected.kHat)
      mismatch = Some("k̂ differs from the truncation point of the replayed scores")
    Replay(edgesIn, nodes, errMax, mismatch)
  }

  /** Relative difference between a block's reported score and φ recomputed on
    * its induced edges under the round's merchant weights.
    */
  private def phiRelErr(
      inside: Array[(Long, Long)], g: LocalGraph, w: Array[Double], score: Double): Double = {
    val gb = LocalGraph.fromEdges(inside)
    val wb = gb.vIds.map(id => w(java.util.Arrays.binarySearch(g.vIds, id)))
    val phi = DensityMetric.phi(gb, wb)
    if (score == 0.0) math.abs(phi) else math.abs(phi - score) / math.abs(score)
  }

}
