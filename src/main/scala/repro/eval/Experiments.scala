package repro.eval

import repro.blocking.{ProfileIndex, TokenBlockingWorkflow}
import repro.core._
import repro.data.HeterogeneousData

/** The experiment matrix of Sec. 7, shared by the spark-submit jobs and the
  * bench suites so both produce identical tables: one factory, `method`,
  * and the AUC and timing lists derived from it.
  */
object Experiments {

  /** GS-PSN comparison budget used on freebase, emulating the paper's
    * footnote 9 (GS-PSN was limited by the 80 GB heap and terminated below
    * 20 % recall): the budget allows roughly three window sizes' worth of
    * stored comparisons.
    */
  def gsPsnBudget(nlSize: Int): Long = 3L * nlSize

  /** Every method of the evaluation, in the order of the paper's tables. */
  private val methodNames: Seq[String] =
    Seq("PSN", "SA-PSN", "SA-PSAB", "LS-PSN", "GS-PSN", "PBS", "PPS")

  /** One dataset's pre-processing, each structure built on first use and
    * shared by every method built from the same `Prep`.
    */
  private final class Prep(val ds: ErDataset) {
    lazy val nl: NeighborList = NeighborList.build(ds.pc)
    lazy val pi: ProfileIndex = TokenBlockingWorkflow.profileIndex(ds.pc)
  }

  /** One method on `ds` with the paper's parameters, built with its own
    * pre-processing (Neighbor List or Token Blocking Workflow):
    *   - PSN on the dataset's expert key;
    *   - SA-PSAB with l_min = 4;
    *   - GS-PSN with w_max = `Harness.defaultWMax` (20 for Dirty ER, 200 for
    *     Clean-clean ER) and, on freebase, the footnote-9 budget;
    *   - PBS and PPS on the workflow's Profile Index with ARCS, PPS with
    *     K_max = 50.
    */
  def method(ds: ErDataset, name: String): ProgressiveMethod = build(new Prep(ds), name)

  private def build(prep: Prep, name: String): ProgressiveMethod = {
    val ds = prep.ds
    val pc = ds.pc
    name match {
      case "PSN"     => new PSN(pc, ds.psnKey.getOrElse(
        throw new IllegalArgumentException(s"${ds.name} has no expert PSN key")))
      case "SA-PSN"  => new SAPSN(pc, prep.nl)
      case "SA-PSAB" => new SAPSAB(pc, lMin = 4)
      case "LS-PSN"  => new LSPSN(pc, prep.nl)
      case "GS-PSN"  =>
        val budget = if (ds.name == "freebase") gsPsnBudget(prep.nl.size) else Long.MaxValue
        new GSPSN(pc, prep.nl, Harness.defaultWMax(pc), maxComparisons = budget)
      case "PBS"     => new PBS(pc, prep.pi)
      case "PPS"     => new PPS(pc, prep.pi, kMax = 50)
    }
  }

  /** The methods of the AUC study on `ds` (Figs. 9–12), as `method` builds
    * them but sharing one Neighbor List and one Profile Index: all of them,
    * PSN only where an expert key exists — the heterogeneous datasets have
    * none (Sec. 7 "Baselines").
    */
  def aucMatrix(ds: ErDataset): Seq[ProgressiveMethod] = {
    val prep = new Prep(ds)
    methodNames.filter(name => name != "PSN" || ds.psnKey.isDefined).map(build(prep, _))
  }

  /** The recall curve of every method of `aucMatrix` on every dataset. */
  def runAll(datasets: Seq[ErDataset], maxEcStar: Double = 30.0): Seq[MethodResult] =
    for (ds <- datasets; m <- aucMatrix(ds)) yield Harness.run(m, ds, maxEcStar)

  /** Method factories for the timing study (Sec. 7.3): every method but PSN
    * and SA-PSAB (excluded as in the paper — an order of magnitude slower).
    * Each thunk builds its own pre-processing structures, so `Harness.timed`
    * charges them to the initialization time, as the paper does (Sec. 7
    * "Metrics").
    */
  def timingFactories(ds: ErDataset): Seq[() => ProgressiveMethod] =
    methodNames.filterNot(Set("PSN", "SA-PSAB")).map(name => () => method(ds, name))

  /** Timing matrix of Sec. 7.3 (movies + dbpedia): every method of
    * `timingFactories`, with the cheap and the expensive match function,
    * measured after one discarded pass on a small movies sample that
    * JIT-compiles every code path.
    */
  def runTimings(datasets: Seq[ErDataset]): Seq[TimedResult] = {
    timings(Seq(HeterogeneousData.movies(0.01)), maxEcStar = 2.0)
    timings(datasets, maxEcStar = 5.0)
  }

  private def timings(datasets: Seq[ErDataset], maxEcStar: Double): Seq[TimedResult] =
    for {
      ds <- datasets
      fn <- Seq(MatchFunctions.JaccardFn, MatchFunctions.EditDistanceFn)
      mk <- timingFactories(ds)
    } yield Harness.timed(mk, ds, fn, maxEcStar)
}
