package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.types.{IntegerType, LongType}
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.data.FraudGraphGen

class SamplingSpec extends SparkSpec {

  private lazy val edges: DataFrame = {
    import spark.implicits._
    (TestGraphs.block(0, 30, 100, 10) ++
      TestGraphs.pairs(1000, 2000, 300) ++
      TestGraphs.star(999, 5000, 100)).toSeq.toDF("u", "v").cache()
  }

  private lazy val jd3: DataFrame =
    FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(1.0)).cache()

  private def asSet(df: DataFrame): Set[(Int, Long, Long)] =
    df.collect().map(r => (r.getInt(0), r.getLong(1), r.getLong(2))).toSet

  /** Multiset equality: `exceptAll` both ways, so duplicate rows count. */
  private def assertSameRows(got: DataFrame, ref: DataFrame): Unit = {
    val (g, r) = (got.cache(), ref.cache())
    try {
      assert(r.count() > 0, "the reference sampled nothing")
      val diff = g.exceptAll(r).withColumn("only_in", F.lit("Sampling"))
        .union(r.exceptAll(g).withColumn("only_in", F.lit("JoinSampling")))
        .collect()
      assert(diff.isEmpty, s"${diff.length} rows differ, e.g. ${diff.take(5).mkString(", ")}")
    } finally { g.unpersist(); r.unpersist() }
  }

  private def kept(seed: Long, n: Int, s: Double): Seq[Int] = {
    val out = new Array[Int](n)
    out.take(Sampling.keptSids(seed, n, s, out)).toSeq
  }

  for (m <- SampleMethod.all) {
    test(s"${m.name}: sids cover [0, N) and edges are a subset of the original") {
      val s = Sampling(m, edges, n = 12, s = 0.5, seed = 1)
      val sids = s.select("sid").distinct().collect().map(_.getInt(0)).toSet
      assert(sids.subsetOf((0 until 12).toSet))
      assert(sids.size >= 10) // with ratio 0.5, essentially every sid appears
      val orig = edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
      assert(asSet(s).forall { case (_, u, v) => orig((u, v)) })
    }

    test(s"${m.name}: deterministic for a fixed seed") {
      assert(asSet(Sampling(m, edges, 6, 0.3, seed = 5)) ==
        asSet(Sampling(m, edges, 6, 0.3, seed = 5)))
    }

    test(s"${m.name}: ratio 0 samples nothing") {
      assert(Sampling(m, edges, 4, 0.0, seed = 2).count() == 0)
    }

    test(s"${m.name}: rows equal the join-based reference on the test graph") {
      val withDups = edges.union(edges.where(F.col("u") % 7 === 0))
      for (seed <- Seq(33L, 7L))
        assertSameRows(Sampling(m, withDups, 12, 0.3, seed), JoinSampling(m, withDups, 12, 0.3, seed))
    }

    test(s"${m.name}: rows equal the join-based reference on jd3 at sf=1") {
      for (seed <- Seq(33L, 7L))
        assertSameRows(Sampling(m, jd3, 40, 0.1, seed), JoinSampling(m, jd3, 40, 0.1, seed))
    }
  }

  test("RES: ratio 1 keeps every edge in every sample") {
    val total = edges.count()
    assert(Sampling(SampleMethod.RES, edges, 5, 1.0, seed = 3).count() == 5 * total)
  }

  test("RES: sampled edge count concentrates around N*S*|E|") {
    val total = edges.count().toDouble
    val got = Sampling(SampleMethod.RES, edges, 40, 0.1, seed = 4).count().toDouble
    val expected = 40 * 0.1 * total
    assert(math.abs(got - expected) < 0.15 * expected, s"got=$got expected=$expected")
  }

  test("RES: per-sid counts match the DuckDB oracle") {
    val s = Sampling(SampleMethod.RES, edges, 6, 0.2, seed = 6).cache()
    val counts = s.groupBy("sid").agg(F.count(F.lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      counts,
      "SELECT sid, count(*) AS cnt FROM sampled GROUP BY sid",
      "sampled" -> s)
    s.unpersist()
  }

  test("ONS-PIN: a sampled user keeps ALL its edges within its sid") {
    val s = Sampling(SampleMethod.OnsPin, edges, 4, 0.3, seed = 7).cache()
    val bySid = s.collect().groupBy(_.getInt(0))
    val orig = edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    bySid.foreach { case (_, rows) =>
      val users = rows.map(_.getLong(1)).toSet
      val got = rows.map(r => (r.getLong(1), r.getLong(2))).toSet
      val expected = orig.filter { case (u, _) => users(u) }.toSet
      assert(got == expected)
    }
    s.unpersist()
  }

  test("ONS-Merchant: a sampled merchant keeps ALL its edges within its sid") {
    val s = Sampling(SampleMethod.OnsMerchant, edges, 4, 0.3, seed = 8).cache()
    val bySid = s.collect().groupBy(_.getInt(0))
    val orig = edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    bySid.foreach { case (_, rows) =>
      val merchants = rows.map(_.getLong(2)).toSet
      val got = rows.map(r => (r.getLong(1), r.getLong(2))).toSet
      val expected = orig.filter { case (_, v) => merchants(v) }.toSet
      assert(got == expected)
    }
    s.unpersist()
  }

  test("TNS subgraphs are much smaller than RES at the same ratio (~S^2 vs S)") {
    val res = Sampling(SampleMethod.RES, edges, 20, 0.2, seed = 9).count().toDouble
    val tns = Sampling(SampleMethod.TNS, edges, 20, 0.2, seed = 9).count().toDouble
    assert(tns < 0.6 * res, s"tns=$tns res=$res")
  }

  test("TNS keeps exactly the cross-section edges of its sampled node sets") {
    val s = Sampling(SampleMethod.TNS, edges, 3, 0.5, seed = 10).cache()
    val orig = edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    s.collect().groupBy(_.getInt(0)).foreach { case (_, rows) =>
      val us = rows.map(_.getLong(1)).toSet
      val vs = rows.map(_.getLong(2)).toSet
      val got = rows.map(r => (r.getLong(1), r.getLong(2))).toSet
      // every cross-section edge present in the sample is in got by
      // construction; got must never contain an edge outside the original
      assert(got.subsetOf(orig.toSet))
      assert(got.forall { case (u, v) => us(u) && vs(v) })
    }
    s.unpersist()
  }

  test("Lemma 1: edge sampling picks high-degree nodes at a higher rate than node sampling") {
    import spark.implicits._
    // 10 users of degree 20 + 300 users of degree 1; p_e = p_v = 0.1.
    val hi = (for { i <- 0 until 10; j <- 0 until 20 } yield (i.toLong + 1, 100L + i * 20 + j))
    val lo = (for { i <- 0 until 300 } yield (10000L + i, 50000L + i))
    val df = (hi ++ lo).toDF("u", "v")
    val n = 120
    def appearanceRate(s: DataFrame, ids: Set[Long]): Double = {
      val present = s.select("sid", "u").distinct().collect()
        .count(r => ids(r.getLong(1)))
      present.toDouble / (n * ids.size)
    }
    val hiIds = (1L to 10L).toSet
    val es = appearanceRate(Sampling(SampleMethod.RES, df, n, 0.1, seed = 11), hiIds)
    val ns = appearanceRate(Sampling(SampleMethod.OnsPin, df, n, 0.1, seed = 11), hiIds)
    // E_ES = 1-(0.9)^20 ≈ 0.88 vs E_NS = 0.1
    assert(es > ns + 0.3, s"ES rate=$es NS rate=$ns")
  }

  test("Theorem 1 flavour: phi of RES samples concentrates near the dense graph's phi") {
    import spark.implicits._
    val block = TestGraphs.block(0, 40, 100, 20, 10) // uniformly dense
    val df = block.toSeq.toDF("u", "v")
    val phiFull = DensityMetric.phi(LocalGraph.fromEdges(block))
    val s = Sampling(SampleMethod.RES, df, 30, 0.5, seed = 12)
    val phis = s.collect().groupBy(_.getInt(0)).values.map { rows =>
      DensityMetric.phi(LocalGraph.fromEdges(rows.map(r => (r.getLong(1), r.getLong(2))).toArray))
    }.toSeq
    val mean = phis.sum / phis.size
    val sd = math.sqrt(phis.map(p => (p - mean) * (p - mean)).sum / phis.size)
    assert(mean > 0.2 * phiFull && mean < 5.0 * phiFull, s"mean=$mean phiFull=$phiFull")
    assert(sd / mean < 0.5, s"cv=${sd / mean}")
  }

  // --- the geometric-skip Bernoulli core -----------------------------------

  test("keptSids marginals match Bernoulli(s) per sid") {
    val n = 40; val s = 0.2; val reps = 5000
    val counts = new Array[Int](n)
    for (seed <- 0 until reps)
      kept(seed.toLong * 7919 + 13, n, s).foreach(counts(_) += 1)
    counts.zipWithIndex.foreach { case (c, i) =>
      assert(math.abs(c.toDouble / reps - s) < 0.03, s"sid $i rate ${c.toDouble / reps}")
    }
  }

  test("keptSids total volume matches n*s") {
    val n = 80; val reps = 4000
    for (s <- Seq(1e-9, 1e-3, 0.1, 0.999)) {
      val total = (0 until reps).map(seed => kept(seed.toLong * 31, n, s).size).sum
      val tol = 4 * math.sqrt(n * s * (1 - s) / reps) + 1e-9
      assert(math.abs(total.toDouble / reps - n * s) < tol, s"s=$s mean ${total.toDouble / reps}")
    }
  }

  test("keptSids is deterministic, sorted, within range and duplicate-free") {
    for (seed <- Seq(1L, 99L, -5L); s <- Seq(1e-9, 1e-3, 0.05, 0.5, 0.9, 0.999)) {
      val a = kept(seed, 30, s)
      assert(a == kept(seed, 30, s))
      assert(a == a.sorted && a.distinct == a)
      assert(a.forall(i => i >= 0 && i < 30))
    }
  }

  test("keptSids edge ratios: s=0 empty, s=1 everything") {
    assert(kept(7L, 20, 0.0).isEmpty)
    assert(kept(7L, 20, 1.0) == (0 until 20))
  }

  test("mixSeed separates nearby ids") {
    val seeds = for (u <- 1L to 50L; v <- 1L to 50L) yield Sampling.mixSeed(42L, u, v)
    assert(seeds.distinct.size == seeds.size)
  }

  test("N < 1 and S outside [0, 1] are rejected on the driver, before any task runs") {
    SampleMethod.all.foreach { m =>
      Seq((0, 0.1), (-1, 0.1), (4, -0.1), (4, 1.5), (4, Double.NaN)).foreach { case (n, s) =>
        intercept[IllegalArgumentException](Sampling(m, edges, n, s, seed = 3))
      }
    }
  }

  test("sampled output schema is (sid, u, v)") {
    SampleMethod.all.foreach { m =>
      val s = Sampling(m, edges, 2, 0.5, seed = 13)
      assert(s.columns.toSeq == Seq("sid", "u", "v"))
      assert(s.schema.fields.map(_.dataType).toSeq == Seq(IntegerType, LongType, LongType))
    }
  }
}
