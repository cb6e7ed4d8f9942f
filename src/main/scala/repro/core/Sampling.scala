package repro.core

import java.util.SplittableRandom

import org.apache.spark.sql.DataFrame
import scala.collection.mutable
import scala.util.hashing.byteswap64

/** The paper's bipartite sampling methods (Section IV-A). */
sealed trait SampleMethod { def name: String }

object SampleMethod {

  /** Random Edge Sampling — Bernoulli over edges (Section IV-A2). */
  case object RES extends SampleMethod { val name = "RES" }

  /** One-side Node Sampling on the user/PIN side (Section IV-A3);
    * "Node PIN Bagging" in Figure 5. */
  case object OnsPin extends SampleMethod { val name = "ONS-PIN" }

  /** One-side Node Sampling on the merchant side;
    * "Node Merchant Bagging" in Figure 5. */
  case object OnsMerchant extends SampleMethod { val name = "ONS-Merchant" }

  /** Two-sides Node Sampling (Section IV-A4). */
  case object TNS extends SampleMethod { val name = "TNS" }

  val all: Seq[SampleMethod] = Seq(RES, OnsPin, OnsMerchant, TNS)
}

/** The samplers. Each produces N sampled subgraphs, sid ∈ [0, N), in a single
  * pass: `buckets` gives each input partition's per-sid edge columns, which
  * `EnsemFdet.perSample` ships to FDET, and `apply` flattens them to rows
  * (sid, u, v).
  *
  * All samplers are Bernoulli with ratio S, independent across sids, and
  * differ only in whose coin decides whether an edge row lands in sample i:
  *   - RES: the edge's own coin, seeded by (u, v);
  *   - ONS-PIN: the user's coin, seeded by u alone, so a sampled user keeps
  *     all its edges ("sampling rows of W", Section IV-A3);
  *   - ONS-Merchant: the merchant's coin, seeded by v alone ("columns of W");
  *   - TNS: both node coins; the subgraph is the cross-section of the sampled
  *     rows and columns (≈ S² of the original at ratio S, Section IV-A4).
  * Because a node's coins depend only on its id, every edge row computes its
  * own kept sids: one per-partition pass, with no distinct, join or shuffle.
  *
  * Rather than tossing N coins per row (N·|E| work), each coin draws its
  * *kept* sids directly with geometric skips: expected O(N·S) work per row.
  * Sampling is deterministic in (data, seed) and independent of partitioning.
  */
object Sampling {

  /** Writes the sids in [0, n) kept by independent Bernoulli(s) draws, in
    * increasing order, into `out` (length >= n) via geometric inter-arrival
    * skips; returns how many it wrote.
    */
  private[core] def keptSids(seed: Long, n: Int, s: Double, out: Array[Int]): Int = {
    if (s <= 0.0) return 0
    if (s >= 1.0) {
      var i = 0
      while (i < n) { out(i) = i; i += 1 }
      return n
    }
    val rng = new SplittableRandom(seed)
    val logKeepFail = math.log1p(-s) // ln(1 - s) < 0
    // failures before the next kept sid: P(gap = g) = (1-s)^g * s
    def gap(): Double = math.floor(math.log1p(-rng.nextDouble()) / logKeepFail)
    var k = 0
    var i = -1L
    var g = gap()
    // g is compared as a Double before the add: at tiny s it can exceed any
    // integer type, and it must end the draw, not wrap i.
    while (g < n - 1 - i) {
      i += 1 + g.toLong
      out(k) = i.toInt
      k += 1
      g = gap()
    }
    k
  }

  /** Keeps in `a` the sids present in both sorted prefixes `a(0 until na)`
    * and `b(0 until nb)`; returns the new length of `a`'s prefix.
    */
  private def intersect(a: Array[Int], na: Int, b: Array[Int], nb: Int): Int = {
    var i = 0; var j = 0; var k = 0
    while (i < na && j < nb) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { a(k) = a(i); k += 1; i += 1; j += 1 }
    }
    k
  }

  /** Stable per-row seed from the row's key ids and the sampler seed. */
  private[core] def mixSeed(seed: Long, a: Long, b: Long): Long =
    byteswap64(seed) ^ byteswap64(a * 0x9E3779B97F4A7C15L) ^
      java.lang.Long.rotateLeft(byteswap64(b - 0x61C8864680B583EBL), 31)

  /** The one sampler: appends each (u, v) of `rows` to the primitive columns
    * of the sids that keep it; returns (sid, us, vs) per kept sid, in order.
    */
  private[core] def buckets(method: SampleMethod, n: Int, s: Double, seed: Long,
      rows: Iterator[(Long, Long)]): Iterator[(Int, Array[Long], Array[Long])] = {
    val kept = new Array[Int](n)
    val other = new Array[Int](n)
    val us = new Array[mutable.ArrayBuilder.ofLong](n)
    val vs = new Array[mutable.ArrayBuilder.ofLong](n)
    rows.foreach { case (u, v) =>
      val k = method match {
        case SampleMethod.RES         => keptSids(mixSeed(seed, u, v), n, s, kept)
        case SampleMethod.OnsPin      => keptSids(mixSeed(seed, u, 1L), n, s, kept)
        case SampleMethod.OnsMerchant => keptSids(mixSeed(seed, v, 2L), n, s, kept)
        case SampleMethod.TNS =>
          intersect(kept, keptSids(mixSeed(seed, u, 1L), n, s, kept),
            other, keptSids(mixSeed(seed + 1, v, 2L), n, s, other))
      }
      var j = 0
      while (j < k) {
        val sid = kept(j)
        if (us(sid) == null) { us(sid) = new mutable.ArrayBuilder.ofLong; vs(sid) = new mutable.ArrayBuilder.ofLong }
        us(sid) += u
        vs(sid) += v
        j += 1
      }
    }
    Iterator.range(0, n).filter(us(_) != null).map(sid => (sid, us(sid).result(), vs(sid).result()))
  }

  /** N sampled subgraphs of `edges` (columns u, v) as rows (sid, u, v). */
  def apply(method: SampleMethod, edges: DataFrame, n: Int, s: Double, seed: Long): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    edges.select("u", "v").as[(Long, Long)]
      .mapPartitions(buckets(method, n, s, seed, _).flatMap { case (sid, us, vs) =>
        Iterator.tabulate(us.length)(i => (sid, us(i), vs(i))) })
      .toDF("sid", "u", "v")
  }
}
