package repro.eval

import org.apache.spark.sql.{DataFrame, functions => F}

/** Precision / Recall / F1 against the ground-truth blacklist, plus the
  * threshold sweeps behind the paper's PR curves.
  */
object Metrics {

  /** Confusion counts over the user side. */
  final case class Prf(tp: Long, fp: Long, fn: Long) {
    def detected: Long = tp + fp
    def precision: Double = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    def recall: Double = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    def f1: Double = {
      val p = precision; val r = recall
      if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    }
  }

  /** One operating point on a PR curve. */
  final case class PrPoint(threshold: Double, prf: Prf)

  /** Confusion counts of driver-side detections. */
  def prfLocal(detected: Set[Long], blacklist: Set[Long]): Prf = {
    val tp = detected.count(blacklist)
    Prf(tp, detected.size - tp, blacklist.size - tp)
  }

  /** EnsemFDet PR curve: sweep the voting threshold T over 1..maxVotes.
    * `userVotes` are (id, votes) pairs; thresholds with an empty detection
    * set are dropped.
    */
  def voteSweep(userVotes: Seq[(Long, Long)], blacklist: Set[Long]): Seq[PrPoint] = {
    val maxVotes = if (userVotes.isEmpty) 0L else userVotes.map(_._2).max
    (1L to maxVotes).flatMap { t =>
      val det = userVotes.collect { case (id, v) if v >= t => id }.toSet
      if (det.isEmpty) None else Some(PrPoint(t.toDouble, prfLocal(det, blacklist)))
    }
  }

  /** Cutoffs per score sweep: at most this many evenly spaced distinct scores. */
  private val SweepPoints = 50

  /** Score-ranking PR curve (SPOKEN / FBOX): sweep cutoffs over the distinct
    * scores, detecting every user with score ≥ cutoff. Zero scores never
    * count as detections.
    */
  def scoreSweep(scores: Seq[(Long, Double)], blacklist: Set[Long]): Seq[PrPoint] = {
    val positive = scores.filter(_._2 > 0)
    if (positive.isEmpty) return Seq.empty
    val sorted = positive.sortBy(-_._2)
    val cuts = distinctCuts(sorted.map(_._2))
    cuts.map { c =>
      val det = sorted.iterator.takeWhile(_._2 >= c).map(_._1).toSet
      PrPoint(c, prfLocal(det, blacklist))
    }
  }

  private def distinctCuts(desc: Seq[Double]): Seq[Double] = {
    val d = desc.distinct
    if (d.length <= SweepPoints) d
    else (0 until SweepPoints).map(i => d((i.toLong * (d.length - 1) / (SweepPoints - 1)).toInt))
  }

  /** Best-F1 point of a curve (the scalar the comparison tables report). */
  def bestF1(points: Seq[PrPoint]): PrPoint =
    if (points.isEmpty) PrPoint(0.0, Prf(0, 0, 1)) else points.maxBy(_.prf.f1)

  /** Collect an EnsemFdet vote frame's user side to (id, votes) pairs. */
  def collectUserVotes(votes: DataFrame): Seq[(Long, Long)] =
    votes
      .where(F.col("side") === "u")
      .select("id", "votes")
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)))
      .toSeq
}
