package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.{Alias, AttributeReference}
import org.apache.spark.sql.catalyst.plans.physical.{HashPartitioning, ShufflePartitionIdPassThrough}
import org.apache.spark.sql.execution.{DeserializeToObjectExec, MapGroupsExec, MapPartitionsExec, ProjectExec}
import org.apache.spark.sql.execution.adaptive.{AQEShuffleReadExec, AdaptiveSparkPlanHelper}
import org.apache.spark.sql.execution.exchange.{REPARTITION_BY_NUM, ShuffleExchangeExec}
import org.apache.spark.sql.types.ObjectType
import repro.{SparkSpec, TestGraphs}
import repro.data.FraudGraphGen

/** `EnsemFdet.perSample`: edges sampled straight into chunks, placed on tasks
  * by slot, with the FDET kernel in a `MapGroups` operator. The earlier
  * per-edge `groupByKey(sid)` path over `Sampling`'s rows, kept in
  * `GroupByKeyVotes`, is the reference.
  */
class PerSampleSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val jd3: DataFrame = FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(1.0)).cache()

  private def voteRows(df: DataFrame): Seq[(String, Long, Long)] =
    df.collect().map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSeq.sorted

  for (m <- SampleMethod.all; truncate <- Seq(true, false)) {
    test(s"${m.name}, truncate=$truncate: jd3 sf=1 vote table equals the groupByKey path " +
      "under 1, one-per-core, 7 and 64 shuffle partitions") {
      val cores = spark.sparkContext.defaultParallelism
      val p = EnsemParams(m, n = 40, s = 0.1, maxBlocks = 10, truncate = truncate, seed = 5)
      val sampled = Sampling(p.method, jd3, p.n, p.s, p.seed)
      val want = voteRows(GroupByKeyVotes(spark, sampled, p))
      assert(want.nonEmpty)
      Seq(1, cores, 7, 64).foreach { parts =>
        val got = withShufflePartitions(parts)(voteRows(EnsemFdet.votes(spark, jd3, p)))
        assert(got == want, s"$parts shuffle partitions")
      }
    }
  }

  test("slotOf puts min(N, P) slots of floor(N/P') or ceil(N/P') contiguous sids each") {
    for ((n, p) <- Seq((1, 4), (3, 7), (80, 4), (80, 7), (80, 64), (81, 4))) {
      val slots = math.min(n, p)
      val bySlot = (0 until n).groupBy(EnsemFdet.slotOf(_, n, slots))
      assert(bySlot.keySet == (0 until slots).toSet, s"N=$n, P=$p: slots ${bySlot.keySet}")
      bySlot.foreach { case (k, sids) =>
        assert(sids == (sids.head to sids.last), s"N=$n, P=$p: slot $k holds $sids")
        assert(sids.length == n / slots || sids.length == (n + slots - 1) / slots,
          s"N=$n, P=$p: slot $k holds ${sids.length} sids")
      }
    }
  }

  test("plan: the kernel is MapGroups over one id-passthrough exchange, never hashed on sid") {
    val planted = {
      import spark.implicits._
      (TestGraphs.block(0, 20, 100, 6) ++ TestGraphs.pairs(50000, 60000, 200)).toSeq.toDF("u", "v")
    }
    for (parts <- Seq(3, 64)) withShufflePartitions(parts) {
      val p = EnsemParams(SampleMethod.RES, n = 30, s = 0.5, seed = 7)
      val df = EnsemFdet.votes(spark, planted, p)
      df.collect()
      val plan = df.queryExecution.executedPlan

      val kernels = collect(plan) { case k: MapGroupsExec => k }
      assert(kernels.length == 1, s"FDET is not one MapGroups node:\n$plan")
      val below = collect(kernels.head) { case e: ShuffleExchangeExec => e }
      assert(below.length == 1, s"${below.length} exchanges below the kernel:\n$plan")
      val ex = below.head
      assert(ex.outputPartitioning.isInstanceOf[ShufflePartitionIdPassThrough], s"\n$plan")
      assert(ex.shuffleOrigin == REPARTITION_BY_NUM, s"\n$plan")
      assert(ex.outputPartitioning.numPartitions == math.min(p.n, parts))
      assert(collect(kernels.head) { case r: AQEShuffleReadExec => r }.isEmpty,
        s"adaptive execution changed the kernel's tasks:\n$plan")

      // Below the exchange, one pass samples the (u, v) edges into chunks:
      // no (sid, u, v) row is encoded, renamed and decoded on the way.
      val passes = collect(ex) { case m: MapPartitionsExec => m }
      assert(passes.length == 1, s"${passes.length} MapPartitions below the exchange:\n$plan")
      val decoded = collect(ex) { case d: DeserializeToObjectExec => d }
      assert(decoded.length == 1, s"${decoded.length} deserializations below the exchange:\n$plan")
      assert(decoded.head.outputObjAttr.dataType == ObjectType(classOf[(Long, Long)]),
        s"the edges are not read as (u, v) pairs:\n$plan")
      val toSid = collect(ex) { case pr: ProjectExec => pr.projectList }.flatten.collect {
        case a: Alias if a.name == "sid" => a
      }
      assert(toSid.isEmpty, s"a Project below the exchange renames a column to sid:\n$plan")

      // Above the kernel, the votes are read from its SampleResult objects as
      // they are: the edges' decoding is the plan's only one.
      assert(collect(plan) { case d: DeserializeToObjectExec => d }.length == 1,
        s"the kernel's output is encoded and decoded again:\n$plan")

      val onSid = collect(plan) {
        case e: ShuffleExchangeExec => e.outputPartitioning
      }.collect { case h: HashPartitioning => h }.filter(_.expressions.exists(_.exists {
        case a: AttributeReference => a.name == "sid"
        case _ => false
      }))
      assert(onSid.isEmpty, s"hash exchange on sid:\n$plan")
    }
  }
}
