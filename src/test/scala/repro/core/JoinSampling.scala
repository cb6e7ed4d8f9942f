package repro.core

import java.util.SplittableRandom

import org.apache.spark.sql.DataFrame

/** Reference samplers for `Sampling`: the earlier implementation, which
  * draws per-sid node sets over `distinct()` node ids and joins them back to
  * the edges. `Sampling` must return the same rows, as a multiset, for every
  * method; tests compare the two and nothing else uses this.
  */
private[core] object JoinSampling {

  /** Sids in [0, n) kept by independent Bernoulli(s) draws, via geometric
    * inter-arrival skips.
    */
  def keptSids(seed: Long, n: Int, s: Double): Seq[Int] = {
    if (s <= 0.0) return Seq.empty
    if (s >= 1.0) return 0 until n
    val rng = new SplittableRandom(seed)
    val logKeepFail = math.log1p(-s) // ln(1 - s) < 0
    val out = Seq.newBuilder[Int]
    var i = -1
    var done = false
    while (!done) {
      // geometric skip >= 1: P(skip = k+1) = (1-s)^k * s
      val skip = 1 + math.floor(math.log1p(-rng.nextDouble()) / logKeepFail).toInt
      i += skip
      if (skip < 1 || i >= n) done = true else out += i
    }
    out.result()
  }

  import Sampling.mixSeed

  /** Random Edge Sampling: keep each (edge, sid) pair with probability s. */
  def res(edges: DataFrame, n: Int, s: Double, seed: Long): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    edges.select("u", "v").as[(Long, Long)]
      .flatMap { case (u, v) => keptSids(mixSeed(seed, u, v), n, s).map(i => (i, u, v)) }
      .toDF("sid", "u", "v")
  }

  /** Per-sid sampled node sets for one column ("u" or "v"). */
  private def sampledNodes(
      edges: DataFrame, col: String, n: Int, s: Double, seed: Long): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    edges.select(col).distinct().as[Long]
      .flatMap(id => keptSids(mixSeed(seed, id, if (col == "u") 1L else 2L), n, s).map(i => (i, id)))
      .toDF("sid", col)
  }

  def onsPin(edges: DataFrame, n: Int, s: Double, seed: Long): DataFrame =
    edges.join(sampledNodes(edges, "u", n, s, seed), "u").select("sid", "u", "v")

  def onsMerchant(edges: DataFrame, n: Int, s: Double, seed: Long): DataFrame =
    edges.join(sampledNodes(edges, "v", n, s, seed), "v").select("sid", "u", "v")

  def tns(edges: DataFrame, n: Int, s: Double, seed: Long): DataFrame =
    edges
      .join(sampledNodes(edges, "u", n, s, seed), "u")
      .join(sampledNodes(edges, "v", n, s, seed + 1), Seq("v", "sid"))
      .select("sid", "u", "v")

  def apply(method: SampleMethod, edges: DataFrame, n: Int, s: Double, seed: Long): DataFrame =
    method match {
      case SampleMethod.RES         => res(edges, n, s, seed)
      case SampleMethod.OnsPin      => onsPin(edges, n, s, seed)
      case SampleMethod.OnsMerchant => onsMerchant(edges, n, s, seed)
      case SampleMethod.TNS         => tns(edges, n, s, seed)
    }
}
