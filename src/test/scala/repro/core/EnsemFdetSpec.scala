package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.eval.Metrics

class EnsemFdetSpec extends SparkSpec {

  // Two fraud rings of different density + degree-1 noise + a hub.
  private val ring1Users = (1L to 20L).toSet
  private val ring2Users = (1001L to 1020L).toSet
  private lazy val planted: DataFrame = {
    import spark.implicits._
    (TestGraphs.block(0, 20, 100, 6) ++
      TestGraphs.block(1000, 20, 2000, 6, 4) ++
      TestGraphs.pairs(50000, 60000, 200) ++
      TestGraphs.star(99999, 300000, 80)).toSeq.toDF("u", "v").cache()
  }
  private val params = EnsemParams(SampleMethod.RES, n = 30, s = 0.5, t = 1, seed = 7)
  private lazy val votesDf: DataFrame = EnsemFdet.votes(spark, planted, params).cache()

  test("vote table schema and ranges") {
    assert(votesDf.columns.toSeq == Seq("side", "id", "votes"))
    val sides = votesDf.select("side").distinct().collect().map(_.getString(0)).toSet
    assert(sides.subsetOf(Set("u", "v")))
    val maxVotes = votesDf.agg(F.max("votes")).collect()(0).getLong(0)
    assert(maxVotes <= params.n, s"a node cannot out-vote N, got $maxVotes")
  }

  test("fraud-ring users collect far more votes than noise users") {
    val votes = Metrics.collectUserVotes(votesDf).toMap
    val ringMedian = median(ring1Users.toSeq.flatMap(votes.get))
    val noise = (50001L to 50200L).flatMap(votes.get)
    val noiseMax = if (noise.isEmpty) 0L else noise.max
    assert(ringMedian > noiseMax, s"ring median $ringMedian vs noise max $noiseMax")
  }

  test("end-to-end detection reaches high recall and precision at the best threshold") {
    val black = ring1Users ++ ring2Users
    val sweep = Metrics.voteSweep(Metrics.collectUserVotes(votesDf), black)
    val best = Metrics.bestF1(sweep)
    assert(best.prf.f1 > 0.85, s"best F1 ${best.prf.f1} at T=${best.threshold}")
    assert(best.prf.recall > 0.8 && best.prf.precision > 0.8)
  }

  test("detected users shrink monotonically as T grows (nested sets)") {
    val sets = (1 to 6).map(t =>
      EnsemFdet.detectUsers(votesDf, t).collect().map(_.getLong(0)).toSet)
    sets.sliding(2).foreach {
      case Seq(a, b) => assert(b.subsetOf(a))
      case _ =>
    }
  }

  test("accepted() matches the DuckDB oracle filter") {
    Oracle.assertEquivalent(
      EnsemFdet.accepted(votesDf, 3),
      "SELECT side, id, votes FROM votes WHERE CAST(votes AS BIGINT) >= 3",
      "votes" -> votesDf)
  }

  test("detectMerchants finds the ring merchants") {
    val merchants = EnsemFdet.detectMerchants(votesDf, params.n / 3)
      .collect().map(_.getLong(0)).toSet
    val ringMerchants = (101L to 106L).toSet ++ (2001L to 2006L).toSet
    assert(ringMerchants.intersect(merchants).size >= 8,
      s"expected most ring merchants, got ${merchants.size} total")
  }

  test("run() equals detectUsers(votes(), t)") {
    val p = params.copy(t = 5)
    val a = EnsemFdet.run(spark, planted, p).collect().map(_.getLong(0)).toSet
    val b = EnsemFdet.detectUsers(EnsemFdet.votes(spark, planted, p), 5)
      .collect().map(_.getLong(0)).toSet
    assert(a == b)
  }

  test("deterministic for a fixed seed") {
    val a = EnsemFdet.votes(spark, planted, params).collect()
      .map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSet
    val b = EnsemFdet.votes(spark, planted, params).collect()
      .map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSet
    assert(a == b)
  }

  test("FIX-K variant (truncate=false) reaches at least the same recall at T=1") {
    val fixK = EnsemFdet.votes(spark, planted, params.copy(truncate = false, maxBlocks = 10))
    val black = ring1Users ++ ring2Users
    val rec = Metrics.voteSweep(Metrics.collectUserVotes(fixK), black).head.prf.recall
    val recTrunc = Metrics.voteSweep(Metrics.collectUserVotes(votesDf), black).head.prf.recall
    assert(rec >= recTrunc - 1e-12)
  }

  test("repetition rate R = S x N") {
    assert(math.abs(EnsemParams(n = 80, s = 0.1).repetitionRate - 8.0) < 1e-12)
    assert(math.abs(params.repetitionRate - 15.0) < 1e-12)
  }

  test("works with every sampling method on the planted graph") {
    val black = ring1Users ++ ring2Users
    SampleMethod.all.foreach { m =>
      val v = EnsemFdet.votes(spark, planted, params.copy(method = m))
      val sweep = Metrics.voteSweep(Metrics.collectUserVotes(v), black)
      val best = Metrics.bestF1(sweep)
      assert(best.prf.f1 > 0.3, s"${m.name}: best F1 ${best.prf.f1}")
    }
  }

  for (m <- SampleMethod.all) {
    test(s"${m.name} vote table equals the one from the join-based reference samples") {
      val p = params.copy(method = m)
      val want = voteRows(GroupByKeyVotes(spark, JoinSampling(p.method, planted, p.n, p.s, p.seed), p))
      assert(want.nonEmpty)
      assert(voteRows(EnsemFdet.votes(spark, planted, p)) == want)
    }
  }

  for (m <- SampleMethod.all) {
    test(s"${m.name}: vote table is the same under 1, 7 and 64 shuffle partitions and repartition(13)") {
      val p = params.copy(method = m)
      val tables = Seq(1, 7, 64).map(parts =>
        withShufflePartitions(parts)(voteRows(EnsemFdet.votes(spark, planted, p)))) :+
        voteRows(EnsemFdet.votes(spark, planted.repartition(13), p))
      assert(tables.head.nonEmpty)
      tables.tail.foreach(t => assert(t == tables.head))
    }
  }

  test("EnsemParams rejects N < 1, S outside (0, 1], T < 1 and maxBlocks < 1") {
    val bad: Seq[() => EnsemParams] = Seq(
      () => EnsemParams(n = 0),
      () => EnsemParams(s = 0.0),
      () => EnsemParams(s = -0.1),
      () => EnsemParams(s = 1.5),
      () => EnsemParams(s = Double.NaN),
      () => EnsemParams(t = 0),
      () => EnsemParams(maxBlocks = 0))
    bad.foreach(mk => assertThrows[IllegalArgumentException](mk()))
    assert(EnsemParams(n = 1, s = 1.0, t = 1, maxBlocks = 1).repetitionRate == 1.0)
  }

  private def voteRows(df: DataFrame): Seq[(String, Long, Long)] =
    df.collect().map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSeq.sorted

  private def median(xs: Seq[Long]): Long = {
    require(xs.nonEmpty)
    xs.sorted.apply(xs.length / 2)
  }
}
