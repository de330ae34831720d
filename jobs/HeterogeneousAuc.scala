package repro.jobs

import repro.data.Datasets
import repro.eval.{Experiments, MethodResult, Report}

/** spark-submit entrypoint for the heterogeneous-dataset study (the numbers
  * behind Fig. 11 and Fig. 12): per-dataset and mean AUC*@{1,5,10,20} for
  * SA-PSN, SA-PSAB, LS-PSN, GS-PSN (w_max = 200, memory-budgeted on
  * freebase), PBS and PPS.
  *
  * Usage: spark-submit --class repro.jobs.HeterogeneousAuc <jar> [scale]
  */
object HeterogeneousAuc {
  val ecStars = Seq(1.0, 5.0, 10.0, 20.0)

  /** The Fig. 11 and Fig. 12 tables, as the job and its bench suite print them. */
  def report(results: Seq[MethodResult]): String = Seq(
    "=== Fig. 11 (table form): AUC*@ec* per heterogeneous dataset ===",
    Report.aucTable(results, ecStars),
    "",
    "=== Fig. 12: mean AUC*@ec* over the heterogeneous datasets ===",
    Report.meanAucTable(results, ecStars)).mkString("\n")

  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    println(report(Experiments.runAll(Datasets.heterogeneous(scale))))
  }
}
