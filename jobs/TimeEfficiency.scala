package repro.jobs

import repro.data.HeterogeneousData
import repro.eval.{Experiments, Report}

/** spark-submit entrypoint for the time-efficiency study of Sec. 7.3
  * (Fig. 13): initialization time and mean per-comparison time on movies and
  * dbpedia, with the cheap (jaccard-sim) and the expensive (edit-dist) match
  * functions. freebase is excluded, as in the paper.
  *
  * Usage: spark-submit --class repro.jobs.TimeEfficiency <jar> [scale]
  */
object TimeEfficiency {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    val dss = Seq(HeterogeneousData.movies(0.1 * scale), HeterogeneousData.dbpedia(scale))
    val timed = Experiments.runTimings(dss)
    println("=== Fig. 13: initialization + comparison times ===")
    println(Report.timingTable(timed))
  }
}
