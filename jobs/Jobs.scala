package repro.jobs

import scala.collection.immutable.ListMap

import org.apache.spark.sql.SparkSession
import repro.eval.Experiments._

/** spark-submit entrypoint for the paper's experiments (Section V).
  * Usage: spark-submit --class repro.jobs.Jobs repro.jar <experiment> [sf]
  * where sf, a finite number > 0, defaults to 1.0 (1/100 of the paper's
  * sizes). `SPARK_MASTER` and `SPARK_SHUFFLE_PARTITIONS` set the deployment.
  */
object Jobs {

  /** Each experiment's text tables, by name. */
  private val experiments = ListMap[String, (SparkSession, Double) => String](
    // Table I: statistics of the three synthetic JD-like datasets.
    "table-1" -> ((spark, sf) => renderTableI(tableI(spark, sf))),
    // Table III: wall-clock EnsemFDet (S=0.1, N=80) vs FRAUDAR (K=30).
    "table-3" -> ((spark, sf) => renderTableIII(tableIII(spark, sf))),
    // Figures 3/4: best F1 of every method on every dataset.
    "method-comparison" -> ((spark, sf) => renderMethodRows(methodComparison(spark, sf))),
    // Figure 5: sampling methods on dataset #3 (S=0.1, R=8).
    "sampling-comparison" -> ((spark, sf) => renderMethodRows(samplingComparison(spark, sf))),
    // Figure 6: truncating point vs FIX-K on dataset #3.
    "truncation" -> ((spark, sf) => renderTruncationRows(truncationComparison(spark, sf))),
    // Figures 7–9: sweeps over N, S and T on dataset #3.
    "param-sweeps" -> ((spark, sf) => onJd3(spark, sf)(d => Seq(
      renderSweepRows("N (S=0.1)", sweepN(d)),
      renderSweepRows("S (R=1)", sweepS(d)),
      renderTRows(sweepT(d))).mkString("\n\n"))))

  /** A session on `SPARK_MASTER` (default `local[*]`) with one shuffle
    * partition per core, or `SPARK_SHUFFLE_PARTITIONS` if set.
    */
  def session(appName: String): SparkSession = {
    val s = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).appName(appName).getOrCreate()
    s.conf.set("spark.sql.shuffle.partitions",
      sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", s.sparkContext.defaultParallelism.toString))
    s
  }

  def main(args: Array[String]): Unit = {
    def usage(): Nothing = {
      System.err.println(s"usage: Jobs <${experiments.keys.mkString("|")}> [sf > 0]")
      sys.exit(2)
    }
    val experiment = args.headOption.flatMap(experiments.get).getOrElse(usage())
    val sf = args.lift(1).fold(Option(DefaultSf))(_.toDoubleOption)
      .filter(x => x > 0.0 && !x.isInfinite).getOrElse(usage())
    val spark = session(args(0))
    try println(experiment(spark, sf))
    finally spark.stop()
  }
}
