package repro.jobs

import repro.data.HeterogeneousData
import repro.eval.{Experiments, Report, TimedResult}

/** spark-submit entrypoint for the time-efficiency study of Sec. 7.3
  * (Fig. 13): initialization time and mean per-comparison time on movies and
  * dbpedia, with the cheap (jaccard-sim) and the expensive (edit-dist) match
  * functions. freebase is excluded, as in the paper.
  *
  * Usage: spark-submit --class repro.jobs.TimeEfficiency <jar> [scale]
  */
object TimeEfficiency {

  /** The Fig. 13 table, as the job and its bench suite print it. */
  def report(timed: Seq[TimedResult]): String =
    "=== Fig. 13: initialization + comparison times ===\n" + Report.timingTable(timed)

  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    val dss = Seq(HeterogeneousData.movies(0.1 * scale), HeterogeneousData.dbpedia(scale))
    println(report(Experiments.runTimings(dss)))
  }
}
