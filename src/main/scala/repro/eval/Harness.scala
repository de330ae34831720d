package repro.eval

import repro.core._

/** A benchmark dataset: profiles + ground truth + (for structured data) the
  * expert schema-based PSN blocking key from the literature.
  */
final case class ErDataset(
    name: String,
    pc: ProfileCollection,
    gt: GroundTruth,
    psnKey: Option[Profile => String] = None)

/** The recall curve of one method on one dataset. */
final case class MethodResult(method: String, dataset: String, curve: Array[Double], gtSize: Int) {
  def aucStar(ecStar: Double): Double = Metrics.aucStar(curve, gtSize, ecStar)
  def finalRecall: Double = if (curve.isEmpty) 0.0 else curve(curve.length - 1)
}

/** Timing of one method on one dataset with a given match function. */
final case class TimedResult(
    method: String,
    dataset: String,
    matchFn: String,
    initMillis: Double,
    comparisonMicros: Double,
    emitted: Int)

/** Runs progressive methods over datasets and produces the rows of the
  * evaluation tables (Sec. 7): recall-progressiveness curves, AUC*@ec*
  * values, initialization and comparison times.
  */
object Harness {

  /** GS-PSN w_max per the paper: 20 for structured, 200 for heterogeneous. */
  def defaultWMax(pc: ProfileCollection): Int = pc.erType match {
    case DirtyEr      => 20
    case CleanCleanEr => 200
  }

  /** Stream a method up to `maxEcStar·|D_P|` emissions and record recall. */
  def run(m: ProgressiveMethod, ds: ErDataset, maxEcStar: Double = 30.0): MethodResult = {
    val maxEmissions = math.round(maxEcStar * ds.gt.size).toInt
    MethodResult(m.name, ds.name, Metrics.recallCurve(m.emissions, ds.gt, maxEmissions), ds.gt.size)
  }

  /** Time a method: initialization time (to the first emission, *including*
    * all pre-processing — the factory builds the Neighbor List / blocking
    * structures inside the timed region, per Sec. 7 "Metrics") and mean
    * per-comparison time (emission + match function execution).
    */
  def timed(
      mkMethod: () => ProgressiveMethod,
      ds: ErDataset,
      matchFn: MatchFunctions.MatchFn,
      maxEcStar: Double = 10.0): TimedResult = {
    val maxEmissions = math.round(maxEcStar * ds.gt.size).toInt
    val t0 = System.nanoTime()
    val m = mkMethod()
    val it = m.emissions
    val hasFirst = it.hasNext
    val first = if (hasFirst) it.next() else null
    val initMillis = (System.nanoTime() - t0) / 1e6
    var emitted = 0
    val t1 = System.nanoTime()
    if (first != null) {
      matchFn.run(ds.pc.profiles(first.i), ds.pc.profiles(first.j))
      emitted += 1
    }
    while (emitted < maxEmissions && it.hasNext) {
      val c = it.next()
      matchFn.run(ds.pc.profiles(c.i), ds.pc.profiles(c.j))
      emitted += 1
    }
    val compMicros = if (emitted == 0) 0.0 else (System.nanoTime() - t1) / 1e3 / emitted
    TimedResult(m.name, ds.name, matchFn.name, initMillis, compMicros, emitted)
  }

  /** Mean AUC*@ecStar of each method across datasets — the numbers behind
    * Figures 10 and 12. Returns (method → mean AUC*) preserving order.
    */
  def meanAucStar(results: Seq[MethodResult], ecStar: Double): Seq[(String, Double)] = {
    val byMethod = results.groupBy(_.method)
    results.map(_.method).distinct.map { m =>
      val rs = byMethod(m)
      (m, rs.map(_.aucStar(ecStar)).sum / rs.size)
    }
  }
}
