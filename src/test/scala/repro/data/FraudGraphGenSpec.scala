package repro.data

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import org.apache.spark.sql.{functions => F}
import repro.{Oracle, SparkSpec}

class FraudGraphGenSpec extends SparkSpec {

  private val testSf = 0.1
  private lazy val spec = FraudGraphGen.Jd1.scaled(testSf)
  private lazy val edges = FraudGraphGen.edges(spark, spec).cache()

  test("specs mirror Table I fraud counts at sf=1") {
    assert(FraudGraphGen.Jd1.fraudUsers == 242)  // paper: 24,247 / 100
    assert(FraudGraphGen.Jd2.fraudUsers == 160)  // paper: 16,035 / 100
    assert(FraudGraphGen.Jd3.fraudUsers == 1020) // paper: 101,702 / 100
  }

  for (s <- FraudGraphGen.all) {
    test(s"${s.name}: spec invariants hold") {
      assert(s.fraudUserBase > 0 && s.fraudMerchantBase > 0)
      assert(s.fraudRingEdges ==
        (0 until s.nBlocks).map(b => s.usersPerBlock.toLong * s.edgesPerUser(b)).sum)
      assert((0 until s.nBlocks).forall(b => s.edgesPerUser(b) <= s.merchantsPerBlock))
    }

    test(s"${s.name}: scaled(0.05) keeps at least one block and 2x headroom") {
      val sc = s.scaled(0.05)
      assert(sc.nBlocks >= 1)
      assert(sc.nUsers >= 2 * sc.fraudUsers)
      assert(sc.nMerchants >= 2 * sc.fraudMerchants)
    }
  }

  test("scaled rejects a scale factor that is not finite and > 0") {
    for (sf <- Seq(0.0, -0.0, -5.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      assertThrows[IllegalArgumentException](FraudGraphGen.Jd3.scaled(sf))
    assert(FraudGraphGen.Jd3.scaled(Double.MinPositiveValue).nBlocks == 1)
  }

  test("edge ids stay in range") {
    val row = edges.agg(
      F.min("u"), F.max("u"), F.min("v"), F.max("v")).collect()(0)
    assert(row.getLong(0) >= 1 && row.getLong(1) <= spec.nUsers)
    assert(row.getLong(2) >= 1 && row.getLong(3) <= spec.nMerchants)
  }

  test("edges are distinct") {
    assert(edges.count() == edges.distinct().count())
  }

  test("every fraud PIN has exactly its ring edges in the fraud merchant range") {
    val ringEdges = edges
      .where(F.col("u") > spec.fraudUserBase && F.col("v") > spec.fraudMerchantBase)
      .collect().map(r => (r.getLong(0), r.getLong(1)))
    // each fraud user ordinal o in block b buys from edgesPerUser(b) distinct shops
    val byUser = ringEdges.groupBy(_._1)
    (0 until spec.nBlocks).foreach { b =>
      val epu = spec.edgesPerUser(b)
      (0 until spec.usersPerBlock).foreach { i =>
        val uid = spec.fraudUserBase + b.toLong * spec.usersPerBlock + i + 1
        val vs = byUser.getOrElse(uid, Array.empty).map(_._2).toSet
        // at least the ring edges (background may add a few more in-range)
        assert(vs.size >= epu, s"user $uid block $b: ${vs.size} < $epu")
        // its ring shops are inside its own block's merchant range
        val vBase = spec.fraudMerchantBase + b.toLong * spec.merchantsPerBlock
        assert(vs.count(v => v > vBase && v <= vBase + spec.merchantsPerBlock) == epu)
      }
    }
  }

  test("total edge count is close to background + ring + camouflage") {
    val upper = spec.backgroundEdges + spec.fraudRingEdges +
      spec.fraudUsers * FraudGraphGen.CamouflagePerUser
    val got = edges.count()
    assert(got <= upper)
    assert(got > 0.95 * upper, s"too many collisions: $got vs $upper")
  }

  test("blacklist has exactly the fraud PINs") {
    val bl = FraudGraphGen.blacklist(spark, spec)
    assert(bl.count() == spec.fraudUsers)
    val ids = bl.collect().map(_.getLong(0))
    assert(ids.min == spec.fraudUserBase + 1 && ids.max == spec.nUsers)
  }

  test("generation is deterministic in (spec, seed)") {
    val a = FraudGraphGen.edges(spark, spec).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val b = FraudGraphGen.edges(spark, spec).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a == b)
  }

  test("jd1–jd3 at sf=1: the sorted edges match the pinned digests") {
    val want = Map(
      "jd1" -> "7c70f84f3d81cc89bb8d3cb4186c02b7d916f14aa2d370a7290502e1573dce09",
      "jd2" -> "a8439cb37c75a1b260b958cba13ee7ff19a04074852f2e01f0d6eafecf8c2c68",
      "jd3" -> "60119d235af86cf527efcc0c4a658f8a7e9a193f9b220c4e0843516023b0cf5c")
    val got = FraudGraphGen.all.map { s =>
      val es = FraudGraphGen.edges(spark, s.scaled(1.0)).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
      val md = MessageDigest.getInstance("SHA-256")
      es.foreach { case (u, v) => md.update(s"$u,$v\n".getBytes(StandardCharsets.UTF_8)) }
      s.name -> md.digest().map(b => f"${b & 0xff}%02x").mkString
    }.toMap
    assert(got == want)
  }

  test("different seeds give different backgrounds") {
    val other = FraudGraphGen.edges(spark, spec.copy(seed = spec.seed + 1))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val base = edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(other != base)
  }

  test("merchant popularity is Zipf-skewed: the head dwarfs the median") {
    val degrees = edges.groupBy("v").agg(F.count(F.lit(1)).as("d"))
      .collect().map(_.getLong(1)).sorted
    val top = degrees.last
    val med = degrees(degrees.length / 2)
    assert(top >= 20 * med, s"top=$top median=$med")
  }

  test("D_avg(Merchant) >> D_avg(PIN) on dataset #3, the Section IV-A3 premise") {
    // The paper states this for dataset No.3 (the Figure 5 experiments).
    val e3 = FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(testSf)).cache()
    val nU = e3.select("u").distinct().count().toDouble
    val nV = e3.select("v").distinct().count().toDouble
    val e = e3.count().toDouble
    e3.unpersist()
    assert(e / nV > 3.0 * (e / nU), s"davgV=${e / nV} davgU=${e / nU}")
  }

  test("dataset statistics match the DuckDB oracle") {
    import spark.implicits._
    val stats = Seq((
      edges.select("u").distinct().count(),
      edges.select("v").distinct().count(),
      edges.count())).toDF("pins", "merchants", "edges")
    Oracle.assertEquivalent(
      stats,
      """SELECT (SELECT count(DISTINCT u) FROM e) AS pins,
        |       (SELECT count(DISTINCT v) FROM e) AS merchants,
        |       (SELECT count(*) FROM e) AS edges""".stripMargin,
      "e" -> edges)
  }

  test("zipfMerchant column stays within [1, n]") {
    val df = spark.range(20000).select(
      FraudGraphGen.zipfMerchant(50, 1.1, 99).as("v"))
    val mm = df.agg(F.min("v"), F.max("v")).collect()(0)
    assert(mm.getLong(0) >= 1 && mm.getLong(1) <= 50)
  }

  test("zipfMerchant head mass is near the analytic value") {
    val n = 1000L
    val df = spark.range(50000).select(
      FraudGraphGen.zipfMerchant(n, 1.1, 100).as("v"))
    val p1 = df.where(F.col("v") === 1).count().toDouble / 50000
    // P(k=1) = (1 - 2^(1-a)) / (1 - n^(1-a)) ≈ 0.134 at a=1.1, n=1000
    val expected = (1 - math.pow(2, -0.1)) / (1 - math.pow(n.toDouble, -0.1))
    assert(math.abs(p1 - expected) < 0.03, s"p1=$p1 expected=$expected")
  }

  test("edges has exactly the (u, v) columns") {
    assert(edges.columns.toSeq == Seq("u", "v"))
    assert(edges.count() > 100)
  }
}
