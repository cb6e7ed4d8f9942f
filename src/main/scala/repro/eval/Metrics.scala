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

  /** EnsemFDet PR curve: sweep the voting threshold T over 1..maxVotes, in
    * ascending T. `userVotes` holds one (id, votes) pair per id.
    */
  def voteSweep(userVotes: Seq[(Long, Long)], blacklist: Set[Long]): Seq[PrPoint] =
    rankedSweep(userVotes.map { case (id, v) => (id, v.toDouble) }, blacklist) { asc =>
      (asc.lastOption.fold(0L)(_.toLong) to 1L by -1L).map(_.toDouble)
    }.reverse

  /** Cutoffs per score sweep: at most this many evenly spaced distinct scores. */
  private val SweepPoints = 50

  /** Score-ranking PR curve (SPOKEN / FBOX): sweep cutoffs over the distinct
    * scores, detecting every user with score ≥ cutoff. `scores` holds one
    * pair per id. Zero scores never count as detections.
    */
  def scoreSweep(scores: Seq[(Long, Double)], blacklist: Set[Long]): Seq[PrPoint] =
    rankedSweep(scores.filter(_._2 > 0), blacklist)(distinctCuts)

  /** At most `SweepPoints` evenly spaced values of the distinct keys, descending. */
  private def distinctCuts(asc: Array[Double]): Seq[Double] = {
    val desc = asc.indices.reverseIterator
      .collect { case i if i == asc.length - 1 || asc(i) != asc(i + 1) => asc(i) }.toArray
    if (desc.length <= SweepPoints) desc.toSeq
    else (0 until SweepPoints).map(i => desc((i.toLong * (desc.length - 1) / (SweepPoints - 1)).toInt))
  }

  /** One PR point per cut c, detecting the ids whose key is ≥ c. The keys are
    * ranked once; `cutsOf` picks descending cuts from the ascending keys, and
    * one walk down the ranking counts the detections and true positives at
    * each cut. Each id appears once in `keyed`, and no key is NaN.
    */
  private def rankedSweep(keyed: Seq[(Long, Double)], blacklist: Set[Long])(
      cutsOf: Array[Double] => Seq[Double]): Seq[PrPoint] = {
    val all = keyed.iterator.map(_._2).toArray
    val black = keyed.iterator.collect { case (id, k) if blacklist(id) => k }.toArray
    java.util.Arrays.sort(all)
    java.util.Arrays.sort(black)
    var a = all.length
    var b = black.length
    cutsOf(all).iterator.map { c =>
      while (a > 0 && all(a - 1) >= c) a -= 1
      while (b > 0 && black(b - 1) >= c) b -= 1
      val tp = black.length - b
      PrPoint(c, Prf(tp, all.length - a - tp, blacklist.size - tp))
    }.toVector
  }

  /** Best-F1 point of a curve (the scalar the comparison tables report). */
  def bestF1(points: Seq[PrPoint]): PrPoint =
    if (points.isEmpty) PrPoint(0.0, Prf(0, 0, 1)) else points.maxBy(_.prf.f1)

  /** Collect an EnsemFdet vote frame's user side to (id, votes) pairs. */
  def collectUserVotes(votes: DataFrame): Seq[(Long, Long)] =
    votes.where(F.col("side") === "u").select("id", "votes").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSeq
}
