package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession, functions => F}

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
  * (the samples spread evenly over the Spark tasks), and majority-vote nodes.
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
    votes(perSample(edges, p))

  /** The vote table of already detected samples: one vote per (sample, node
    * it votes for).
    */
  private[repro] def votes(samples: Dataset[SampleResult]): DataFrame = {
    val spark = samples.sparkSession
    import spark.implicits._
    samples.flatMap(r => r.users.iterator.map(("u", _)) ++ r.merchants.iterator.map(("v", _)))
      .toDF("side", "id")
      .groupBy("side", "id").agg(F.count(F.lit(1)).as("votes"))
  }

  /** One sample's FDET result as the ensemble reads it: sample `sid`'s
    * truncation point k̂, and the users and merchants it votes for — those of
    * its first k̂ blocks, or of all its blocks in FIX-K mode.
    */
  private[repro] final case class SampleResult(sid: Int, kHat: Int, users: Array[Long], merchants: Array[Long])

  /** One sample's edges from one input partition, as primitive columns, with
    * the task slot the sample runs in.
    */
  private[core] final case class Chunk(slot: Int, sid: Int, us: Array[Long], vs: Array[Long])

  /** Draws `p`'s N samples of `edges` (columns u, v), runs FDET with `p`'s
    * block cap once on each, sid ∈ [0, p.n), and returns one `SampleResult`
    * per sample. This is the one place that applies `p.truncate`: it sets
    * both FDET's stopping rule (`Fdet.DefaultPatience`, or none in FIX-K
    * mode) and which blocks vote. One shuffle, in three steps:
    *   - each input partition samples its edges straight into per-sid
    *     primitive columns (`Sampling.buckets`) and emits one `Chunk` per sid
    *     it kept an edge in, so no per-edge row is built, sorted or shuffled;
    *   - `repartitionById` sends each chunk to task `slotOf(sid)`: each of the
    *     min(N, shuffle partitions) tasks runs ⌊N/P⌋ or ⌈N/P⌉ samples, and
    *     adaptive execution does not coalesce the tasks;
    *   - `mapGroups` over (slot, sid), which that partitioning already
    *     satisfies, joins a sample's chunks and runs FDET on the graph built
    *     from them. The kernel stays a `MapGroups` operator, so its tasks
    *     form one stage that a trace finds by that operator's name.
    * Callers that read the rows more than once (votes and k̂) cache them, so
    * FDET runs once per sample.
    */
  private[repro] def perSample(edges: DataFrame, p: EnsemParams): Dataset[SampleResult] = {
    val spark = edges.sparkSession
    import spark.implicits._
    val n = p.n
    val slots = math.min(n, spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val patience = if (p.truncate) Some(Fdet.DefaultPatience) else None
    edges.select("u", "v").as[(Long, Long)]
      .mapPartitions(rows => Sampling.buckets(p.method, n, p.s, p.seed, rows)
        .map { case (sid, us, vs) => Chunk(slotOf(sid, n, slots), sid, us, vs) })
      .repartitionById(slots, F.col("slot"))
      .groupBy("slot", "sid").as[(Int, Int), Chunk]
      .mapGroups { (key, chunks) =>
        val cs = chunks.toSeq
        val g = LocalGraph.fromColumns(Array.concat(cs.map(_.us): _*), Array.concat(cs.map(_.vs): _*))
        val r = Fdet.runOn(g, p.maxBlocks, patience)
        SampleResult(key._2, r.kHat, r.userSet(p.truncate).toArray, r.merchantSet(p.truncate).toArray)
      }
  }

  /** The task slot of sample `sid` of `n` spread over `slots` <= n tasks:
    * ⌊sid·slots/n⌋, so slot k holds the contiguous sids [⌈k·n/slots⌉,
    * ⌈(k+1)·n/slots⌉), ⌊n/slots⌋ or ⌈n/slots⌉ of them.
    */
  private[core] def slotOf(sid: Int, n: Int, slots: Int): Int = (sid.toLong * slots / n).toInt

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
