package repro.jobs

import repro.data.Datasets
import repro.eval.{Experiments, MethodResult, Report}

/** spark-submit entrypoint for the structured-dataset recall-progressiveness
  * study (the numbers behind Fig. 9 and Fig. 10): per-dataset and mean
  * AUC*@{1,5,10,20} for PSN, SA-PSN, SA-PSAB, LS-PSN, GS-PSN, PBS, PPS.
  *
  * Usage: spark-submit --class repro.jobs.StructuredAuc <jar>
  */
object StructuredAuc {
  val ecStars = Seq(1.0, 5.0, 10.0, 20.0)

  /** The Fig. 9 and Fig. 10 tables, as the job and its bench suite print them. */
  def report(results: Seq[MethodResult]): String = Seq(
    "=== Fig. 9 (table form): AUC*@ec* per structured dataset ===",
    Report.aucTable(results, ecStars),
    "",
    "=== Fig. 10: mean AUC*@ec* over the structured datasets ===",
    Report.meanAucTable(results, ecStars)).mkString("\n")

  def main(args: Array[String]): Unit =
    println(report(Experiments.runAll(Datasets.structured())))
}
