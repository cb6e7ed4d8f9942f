package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession, functions => F}
import org.apache.spark.sql.types.LongType

/** Specification of one synthetic 'who buy-from where' dataset.
  *
  * The paper evaluates on three proprietary JD.com PIN–Merchant snapshots
  * (Table I) with expert-reviewed blacklists. We simulate them: a Zipf-skewed
  * background shopping graph plus injected dense fraud rings with camouflage
  * edges (DESIGN.md §3). Fraud PINs occupy the id range (fraudUserBase,
  * nUsers]; fraud merchants the range (fraudMerchantBase, nMerchants] — the
  * Zipf head (popular merchants) sits at low ids, so fraud shops are
  * background-unpopular, as in the real scenario.
  *
  * Ring densities vary block to block (in-ring purchases per PIN cycle over
  * BaseEdgesPerUser .. BaseEdgesPerUser + EpuSpread − 1): rings are dense but
  * not identical, so FDET extracts a gently decreasing score curve that
  * collapses at the background level — the Figure 1 shape that the Δ²φ
  * truncating point keys on. In-ring merchants are assigned by modular
  * stride, so each fraud PIN hits exactly that many distinct shops.
  *
  * @param backgroundEdges  Zipf(α)-merchant × uniform-user purchase events
  * @param nBlocks          number of disjoint fraud rings
  * @param usersPerBlock    fraud PINs controlled per ring
  * @param merchantsPerBlock colluding shops per ring
  *
  * The ring densities, the camouflage and the Zipf exponent are the same for
  * every dataset: constants of `FraudGraphGen`.
  */
final case class FraudSpec(
    name: String,
    nUsers: Long,
    nMerchants: Long,
    backgroundEdges: Long,
    nBlocks: Int,
    usersPerBlock: Int,
    merchantsPerBlock: Int,
    seed: Long) {
  import FraudGraphGen.{BaseEdgesPerUser, EpuSpread}

  def fraudUsers: Long = nBlocks.toLong * usersPerBlock
  def fraudMerchants: Long = nBlocks.toLong * merchantsPerBlock
  def fraudUserBase: Long = nUsers - fraudUsers
  def fraudMerchantBase: Long = nMerchants - fraudMerchants

  /** In-ring purchases per PIN in block b (0-based). */
  def edgesPerUser(b: Int): Int = BaseEdgesPerUser + (b % EpuSpread)

  /** Exact number of in-ring fraud edges (generation is collision-free). */
  def fraudRingEdges: Long =
    (0 until nBlocks).map(b => usersPerBlock.toLong * edgesPerUser(b)).sum

  require(fraudUserBase > 0, s"$name: more fraud users than users")
  require(fraudMerchantBase > 0, s"$name: more fraud merchants than merchants")
  require(BaseEdgesPerUser + EpuSpread - 1 <= merchantsPerBlock,
    s"$name: edgesPerUser must not exceed merchantsPerBlock")

  /** Scale node/edge/block counts by sf, keeping per-block shape fixed.
    * Guards keep the graph well-formed at tiny sf (at least one block, and
    * background population at least 2× the fraud population).
    */
  def scaled(sf: Double): FraudSpec = {
    require(sf > 0.0 && !sf.isInfinite, s"scale factor must be finite and > 0, got $sf")
    val blocks = math.max(1, math.round(nBlocks * sf).toInt)
    copy(
      nUsers = math.max((nUsers * sf).toLong, blocks.toLong * usersPerBlock * 2),
      nMerchants = math.max((nMerchants * sf).toLong, blocks.toLong * merchantsPerBlock * 2),
      backgroundEdges = math.max(1L, (backgroundEdges * sf).toLong),
      nBlocks = blocks)
  }
}

/** Deterministic (spec, seed) generators for the three Table-I-like datasets.
  * Default sizes are 1/100 of the paper's Table I counts (DESIGN.md §3).
  */
object FraudGraphGen {

  /** Minimum in-ring purchases per fraud PIN. */
  val BaseEdgesPerUser = 4

  /** Ring block b has BaseEdgesPerUser + (b mod EpuSpread) purchases per PIN. */
  val EpuSpread = 2

  /** Camouflage purchases per fraud PIN at popular shops. */
  val CamouflagePerUser = 1

  /** Exponent of the merchant popularity law. */
  val ZipfAlpha = 1.1

  /** Dataset #1: 454,925 PINs / 24,247 fraud / 226,585 merchants / 1,023,846 edges. */
  val Jd1: FraudSpec =
    FraudSpec("jd1", 4549, 2266, 8918, nBlocks = 11, usersPerBlock = 22,
      merchantsPerBlock = 8, seed = 11)

  /** Dataset #2: 2,194,325 PINs / 16,035 fraud / 120,867 merchants / 2,790,517 edges. */
  val Jd2: FraudSpec =
    FraudSpec("jd2", 21943, 1209, 27025, nBlocks = 8, usersPerBlock = 20,
      merchantsPerBlock = 6, seed = 22)

  /** Dataset #3: 4,332,696 PINs / 101,702 fraud / 556,634 merchants / 7,997,696 edges. */
  val Jd3: FraudSpec =
    FraudSpec("jd3", 43327, 5566, 74367, nBlocks = 12, usersPerBlock = 85,
      merchantsPerBlock = 12, seed = 33)

  val all: Seq[FraudSpec] = Seq(Jd1, Jd2, Jd3)

  /** Zipf-like merchant id in [1, n], low ids popular: inverse CDF of the
    * truncated Pareto density p(k) ∝ k^(−α) on [1, n], α > 1. This gives the
    * proper head mass (P(k = 1) ≈ (α − 1)/α·(1 − n^(1−α))^(−1) ≈ 14% at
    * α = 1.1), so the most popular shop is a heavy hub but not the whole graph.
    */
  private[data] def zipfMerchant(n: Long, alpha: Double, seed: Long): Column = {
    require(alpha > 1.0, "zipf alpha must exceed 1")
    val tail = math.pow(n.toDouble, 1.0 - alpha) // n^(1-α) ∈ (0, 1)
    F.least(
      F.lit(n),
      F.greatest(
        F.lit(1L),
        F.pow(F.lit(1.0) - F.rand(seed) * (1.0 - tail), F.lit(1.0 / (1.0 - alpha)))
          .cast(LongType)))
  }

  /** The simple (deduplicated) 'who buy-from where' edge set (u, v). */
  def edges(spark: SparkSession, spec: FraudSpec): DataFrame = {
    val s = spec.seed

    val background = spark.range(spec.backgroundEdges).select(
      (F.rand(s) * spec.nUsers + 1).cast(LongType).as("u"),
      zipfMerchant(spec.nMerchants, ZipfAlpha, s + 1).as("v"))

    // In-ring fraud edges: ONE range per density tier (epu value), not one
    // per ring — at sf=100 there are >1000 rings and a union that wide makes
    // every downstream Catalyst analysis walk thousands of plan children.
    // Tier t covers blocks b ≡ t (mod EpuSpread), all with epu = base + t.
    // Merchant choice is a modular stride over the ring's shops: PIN ordinal
    // o, purchase j gets shop (3o + j) mod merchantsPerBlock — exactly epu
    // distinct shops per PIN.
    val rings = (0 until EpuSpread).flatMap { t =>
      val epu = BaseEdgesPerUser + t
      val tierBlocks = (spec.nBlocks - t + EpuSpread - 1) / EpuSpread
      if (tierBlocks <= 0) None
      else {
        val perBlock = spec.usersPerBlock.toLong * epu
        val block = F.lit(t.toLong) + F.floor(F.col("id") / perBlock) * EpuSpread
        val userOrd = F.floor((F.col("id") % perBlock) / epu)
        val j = F.col("id") % epu
        Some(spark.range(tierBlocks * perBlock).select(
          (F.lit(spec.fraudUserBase) + block * spec.usersPerBlock + userOrd + 1).as("u"),
          (F.lit(spec.fraudMerchantBase) + block * spec.merchantsPerBlock
            + (userOrd * 3 + j) % spec.merchantsPerBlock + 1).as("v")))
      }
    }

    // Camouflage: each fraud PIN also shops at Zipf-popular merchants.
    val cam = spark.range(spec.fraudUsers * CamouflagePerUser).select(
      (F.lit(spec.fraudUserBase) + F.floor(F.col("id") / CamouflagePerUser) + 1).as("u"),
      zipfMerchant(spec.nMerchants, ZipfAlpha, s + 3).as("v"))

    (rings :+ cam).foldLeft(background)(_ unionAll _).distinct()
  }

  /** Ground-truth blacklist of fraud PINs, one column "u". */
  def blacklist(spark: SparkSession, spec: FraudSpec): DataFrame =
    spark.range(spec.fraudUserBase + 1, spec.nUsers + 1).toDF("u")
}
