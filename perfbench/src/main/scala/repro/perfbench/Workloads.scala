package repro.perfbench

import repro.blocking.TokenBlockingWorkflow
import repro.core._
import repro.data.{HeterogeneousData, StructuredData}
import repro.eval.{ErDataset, MatchFunctions}

/** One method of a workload: how to build it and what its stream promises.
  *
  * `start` builds the method with all its pre-processing (Neighbor List or
  * Token Blocking Workflow) and returns its emission stream, as
  * `Experiments.timingFactories` does, so a closed loop charges that work to
  * the method.
  */
final case class Recipe(name: String, noRepeats: Boolean, start: Tracer => Iterator[Comparison])

/** A workload: a generated dataset, the methods run on it and the match
  * function the consumer runs on every emission.
  *
  * @param scale       generator scale; the paper-size dataset is not used
  *                    where one pass of every method would not fit a run
  * @param defaultSeed the generator's own seed (the numbers of EXPERIMENTS.md)
  */
final case class Workload(
    name: String,
    scale: Double,
    defaultSeed: Long,
    generate: (Double, Long) => ErDataset,
    matchFn: MatchFunctions.MatchFn,
    wMax: Int)

object Workloads {

  /** The six schema-agnostic methods, in the order of the paper's tables. */
  val methods: Seq[String] = Seq("SA-PSN", "SA-PSAB", "LS-PSN", "GS-PSN", "PBS", "PPS")

  val all: Seq[Workload] = Seq(
    Workload("cddb-dirty", 0.2, 19, (s, seed) => StructuredData.cddb(s, seed),
      MatchFunctions.EditDistanceFn, wMax = 20),
    Workload("movies-cc", 0.05, 23, (s, seed) => HeterogeneousData.movies(s, seed),
      MatchFunctions.JaccardFn, wMax = 200))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")})"))

  private def emit(tr: Tracer, m: ProgressiveMethod): Iterator[Comparison] =
    tr.span("emissions")(m.emissions)

  /** The driver-side recipe of a method with the paper's parameters: SA-PSAB
    * l_min = 4, GS-PSN `wMax`, PPS K_max = 50, Block Purging 10 % and Block
    * Filtering 80 % (the workflow's defaults), ARCS edge weights.
    */
  def driverRecipe(name: String, pc: ProfileCollection, wMax: Int): Recipe = {
    def nl(tr: Tracer) = tr.span("nl.build")(NeighborList.build(pc))
    def pi(tr: Tracer) = tr.span("tb.workflow")(TokenBlockingWorkflow.profileIndex(pc))
    name match {
      case "SA-PSN"  => Recipe(name, false, tr => emit(tr, new SAPSN(pc, nl(tr))))
      case "SA-PSAB" => Recipe(name, false, tr => emit(tr, new SAPSAB(pc, lMin = 4)))
      case "LS-PSN"  => Recipe(name, false, tr => emit(tr, new LSPSN(pc, nl(tr))))
      case "GS-PSN"  => Recipe(name, true, tr => emit(tr, new GSPSN(pc, nl(tr), wMax)))
      case "PBS"     => Recipe(name, true, tr => emit(tr, new PBS(pc, pi(tr))))
      case "PPS"     => Recipe(name, true, tr => emit(tr, new PPS(pc, pi(tr), kMax = 50)))
    }
  }

  /** The schema-based PSN baseline, where the dataset has an expert key. */
  def psnRecipe(ds: ErDataset): Option[Recipe] =
    ds.psnKey.map(k => Recipe("PSN", false, tr => emit(tr, new PSN(ds.pc, k))))

  /** The workload's six methods. */
  def recipes(w: Workload, ds: ErDataset): Seq[Recipe] = methods.map(driverRecipe(_, ds.pc, w.wMax))
}
