package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Experiments

/** Shared SparkSession builder for spark-submit entrypoints. */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** First CLI arg as scale factor, default 1.0 (= 1/100 of the paper). */
  def sf(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(Experiments.DefaultSf)
}

/** Table I: statistics of the three synthetic JD-like datasets.
  * Usage: spark-submit --class repro.jobs.TableIJob repro.jar [sf]
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table-1")
    println(Experiments.renderTableI(Experiments.tableI(spark, Jobs.sf(args))))
    spark.stop()
  }
}

/** Table III: wall-clock EnsemFDet (S=0.1, N=80) vs FRAUDAR (K=30). */
object TableIIIJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table-3")
    println(Experiments.renderTableIII(Experiments.tableIII(spark, Jobs.sf(args))))
    spark.stop()
  }
}

/** Figure 3/4 summary: best-F1 of every method on every dataset. */
object MethodComparisonJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("method-comparison")
    println(Experiments.renderMethodRows(Experiments.methodComparison(spark, Jobs.sf(args))))
    spark.stop()
  }
}

/** Figure 5 summary: sampling methods on dataset #3 (S=0.1, R=8). */
object SamplingComparisonJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sampling-comparison")
    println(Experiments.renderMethodRows(Experiments.samplingComparison(spark, Jobs.sf(args))))
    spark.stop()
  }
}

/** Figure 6 summary: truncating point vs FIX-K on dataset #3. */
object TruncationJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("truncation")
    println(Experiments.renderTruncationRows(Experiments.truncationComparison(spark, Jobs.sf(args))))
    spark.stop()
  }
}

/** Figures 7–9: parameter sweeps over N, S and T on dataset #3. */
object ParamSweepJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("param-sweeps")
    val sf = Jobs.sf(args)
    println(Experiments.renderSweepRows("N (S=0.1)", Experiments.sweepN(spark, sf)))
    println()
    println(Experiments.renderSweepRows("S (R=1)", Experiments.sweepS(spark, sf)))
    println()
    println(Experiments.renderTRows(Experiments.sweepT(spark, sf)))
    spark.stop()
  }
}
