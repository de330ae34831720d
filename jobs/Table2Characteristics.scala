package repro.jobs

import repro.data.Datasets
import repro.eval.{ErDataset, Report}

/** spark-submit entrypoint for Table 2: prints the characteristics of the
  * 7 synthetic datasets at benchmark scale (paper vs measured shapes are
  * recorded in EXPERIMENTS.md).
  *
  * Usage: spark-submit --class repro.jobs.Table2Characteristics <jar> [scale]
  */
object Table2Characteristics {

  /** Table 2, as the job and its bench suite print it. */
  def report(dss: Seq[ErDataset]): String =
    "=== Table 2: dataset characteristics (synthetic analogs) ===\n" + Report.datasetCharacteristics(dss)

  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    println(report(Datasets.structured(cddbScale = scale) ++ Datasets.heterogeneous(scale)))
  }
}
