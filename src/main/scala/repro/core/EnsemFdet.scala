package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}

/** Hyper-parameters of EnsemFDet — mirrors Table II of the paper.
  *
  * @param method   bipartite sampling method M
  * @param n        N: number of sampled graphs
  * @param s        S: sample ratio
  * @param t        T: voting threshold in the aggregation method
  * @param maxBlocks cap on blocks FDET may detect per sampled graph
  * @param truncate  true: use the truncating point k̂ (EnsemFDet);
  *                  false: keep all `maxBlocks` blocks (EnsemFDet-FIX-K)
  */
final case class EnsemParams(
    method: SampleMethod = SampleMethod.RES,
    n: Int = 80,
    s: Double = 0.1,
    t: Int = 1,
    maxBlocks: Int = 30,
    truncate: Boolean = true,
    seed: Long = 42L) {
  require(n >= 1, s"N must be >= 1, got $n")
  require(s > 0.0 && s <= 1.0, s"S must be in (0, 1], got $s")
  require(t >= 1, s"T must be >= 1, got $t")
  require(maxBlocks >= 1, s"maxBlocks must be >= 1, got $maxBlocks")

  /** R = S × N, the repetition rate (Table II). */
  def repetitionRate: Double = s * n
}

/** EnsemFDet (Algorithm 2): sample N subgraphs, run FDET on each in parallel
  * (one Spark task per sampled subgraph), and majority-vote nodes.
  *
  * All distributed steps are DataFrame/Dataset transformations; the only
  * driver-side state is the final (tiny) detected-node frames.
  */
object EnsemFdet {

  /** Vote table: (side ∈ {u, v}, id, votes). A node receives one vote per
    * sampled subgraph whose (truncated) FDET output contains it — the
    * per-sample h_i(u) of Definition 4.
    */
  def votes(spark: SparkSession, edges: DataFrame, p: EnsemParams): DataFrame =
    sampleVotes(spark, Sampling(p.method, edges, p.n, p.s, p.seed), p)

  /** The vote table of already-sampled (sid, u, v) rows. */
  private[core] def sampleVotes(spark: SparkSession, sampled: DataFrame, p: EnsemParams): DataFrame = {
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

  /** Majority Voting Aggregation (Definition 4): accept nodes with ≥ t votes. */
  def accepted(votesDf: DataFrame, t: Int): DataFrame =
    votesDf.where(F.col("votes") >= t)

  /** Detected fraud users U_final as a one-column DataFrame ("u"). */
  def detectUsers(votesDf: DataFrame, t: Int): DataFrame =
    accepted(votesDf, t).where(F.col("side") === "u").select(F.col("id").as("u"))

  /** Detected fraud merchants V_final as a one-column DataFrame ("v"). */
  def detectMerchants(votesDf: DataFrame, t: Int): DataFrame =
    accepted(votesDf, t).where(F.col("side") === "v").select(F.col("id").as("v"))

  /** End-to-end convenience: sample → FDET-in-parallel → vote → threshold. */
  def run(spark: SparkSession, edges: DataFrame, p: EnsemParams): DataFrame =
    detectUsers(votes(spark, edges, p), p.t)
}
