package repro.eval

import repro.core.{CleanCleanEr, DirtyEr}

/** Plain-text renderings of the evaluation tables — the rows recorded in
  * EXPERIMENTS.md next to the paper's numbers.
  */
object Report {

  /** Table 2: dataset characteristics. */
  def datasetCharacteristics(dss: Seq[ErDataset]): String = {
    val header = f"${"dataset"}%-12s ${"ER type"}%-14s ${"|P|"}%-12s ${"#attr"}%-10s ${"|D_P|"}%-8s ${"|p̄|"}%-6s"
    val rows = dss.map { ds =>
      val (np, na) = ds.pc.erType match {
        case DirtyEr =>
          (ds.pc.size.toString, ds.pc.profiles.flatMap(_.attrs.map(_._1)).distinct.size.toString)
        case CleanCleanEr =>
          val (p1, p2) = ds.pc.profiles.partition(_.source == 1)
          (s"${p1.size}—${p2.size}",
           s"${p1.flatMap(_.attrs.map(_._1)).distinct.size}—${p2.flatMap(_.attrs.map(_._1)).distinct.size}")
      }
      val pBar = ds.pc.profiles.map(_.attrs.size.toLong).sum.toDouble / ds.pc.size
      f"${ds.name}%-12s ${ds.pc.erType.toString}%-14s $np%-12s $na%-10s ${ds.gt.size}%-8d $pBar%-6.2f"
    }
    (header +: rows).mkString("\n")
  }

  /** Per-dataset AUC*@ec* table (the numbers behind Fig. 9/11). */
  def aucTable(results: Seq[MethodResult], ecStars: Seq[Double]): String = {
    val header =
      f"${"dataset"}%-12s ${"method"}%-9s " +
        ecStars.map(e => f"${s"AUC*@${e.toInt}"}%-9s").mkString + f"${"finalRec"}%-8s"
    val rows = results.map { r =>
      f"${r.dataset}%-12s ${r.method}%-9s " +
        ecStars.map(e => f"${r.aucStar(e)}%-9.3f").mkString + f"${r.finalRecall}%-8.3f"
    }
    (header +: rows).mkString("\n")
  }

  /** Mean AUC*@ec* across datasets (Fig. 10 / Fig. 12). */
  def meanAucTable(results: Seq[MethodResult], ecStars: Seq[Double]): String = {
    val header = f"${"method"}%-9s " + ecStars.map(e => f"${s"mAUC*@${e.toInt}"}%-10s").mkString
    val means = ecStars.map(e => Harness.meanAucStar(results, e).toMap)
    val rows = results.map(_.method).distinct.map { m =>
      f"$m%-9s " + means.map(mean => f"${mean(m)}%-10.3f").mkString
    }
    (header +: rows).mkString("\n")
  }

  /** Timing table (Fig. 13): initialization + mean comparison time. */
  def timingTable(timed: Seq[TimedResult]): String = {
    val header =
      f"${"dataset"}%-12s ${"matchFn"}%-12s ${"method"}%-9s ${"init(ms)"}%-10s ${"cmp(us)"}%-9s ${"emitted"}%-8s"
    val rows = timed.map { t =>
      f"${t.dataset}%-12s ${t.matchFn}%-12s ${t.method}%-9s ${t.initMillis}%-10.1f ${t.comparisonMicros}%-9.2f ${t.emitted}%-8d"
    }
    (header +: rows).mkString("\n")
  }
}
