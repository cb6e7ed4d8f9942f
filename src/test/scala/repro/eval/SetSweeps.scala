package repro.eval

import repro.eval.Metrics.{PrPoint, prfLocal}

/** The Set-based sweeps that `Metrics.voteSweep` and `Metrics.scoreSweep`
  * replaced: each threshold rebuilds its detected set and counts it against
  * the blacklist. Kept as the oracle of the ranked sweep.
  */
object SetSweeps {

  def voteSweep(userVotes: Seq[(Long, Long)], blacklist: Set[Long]): Seq[PrPoint] = {
    val maxVotes = if (userVotes.isEmpty) 0L else userVotes.map(_._2).max
    (1L to maxVotes).flatMap { t =>
      val det = userVotes.collect { case (id, v) if v >= t => id }.toSet
      if (det.isEmpty) None else Some(PrPoint(t.toDouble, prfLocal(det, blacklist)))
    }
  }

  private val SweepPoints = 50

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
}
