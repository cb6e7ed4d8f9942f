package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}

/** Reference vote table for `EnsemFdet.votes`: the earlier path, which
  * groups already-sampled (sid, u, v) rows with a per-edge `groupByKey(sid)`
  * and runs FDET on each group's boxed edge array. Given the rows of the same
  * samples, from `Sampling` or from `JoinSampling`, the fused, chunked and
  * slot-placed path must return the same table row for row; tests compare
  * the two and nothing else uses this.
  */
private[core] object GroupByKeyVotes {

  def apply(spark: SparkSession, sampled: DataFrame, p: EnsemParams): DataFrame = {
    import spark.implicits._
    val detected = sampled
      .select(
        F.col("sid").cast("int"),
        F.col("u").cast("long"),
        F.col("v").cast("long"))
      .as[(Int, Long, Long)]
      .groupByKey(_._1)
      .flatMapGroups { (_, it) =>
        val es = it.map(e => (e._2, e._3)).toArray
        val r = Fdet.run(
          es,
          maxBlocks = p.maxBlocks,
          elbowPatience = if (p.truncate) Some(3) else None)
        val us = r.userSet(p.truncate)
        val vs = r.merchantSet(p.truncate)
        us.iterator.map(id => ("u", id)) ++ vs.iterator.map(id => ("v", id))
      }
      .toDF("side", "id")
    detected.groupBy("side", "id").agg(F.count(F.lit(1)).as("votes"))
  }
}
