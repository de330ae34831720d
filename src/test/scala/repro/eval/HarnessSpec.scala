package repro.eval

import repro.SparkSpec
import repro.core._
import repro.data.{HeterogeneousData, StructuredData}

class HarnessSpec extends SparkSpec {

  private val fixture = ErDataset("fixture", PaperExample.pc, PaperExample.gt,
    Some(p => p.attrs.head._2))

  test("run caps the curve at maxEcStar·|D_P| emissions") {
    val r = Harness.run(SAPSN(PaperExample.pc), fixture, maxEcStar = 2.0)
    assert(r.curve.length <= 2 * PaperExample.gt.size)
  }

  test("run reaches full recall on the fixture for equality methods") {
    val pi = repro.blocking.TokenBlockingWorkflow.profileIndex(
      PaperExample.pc, purgeFraction = 1.0, filterRatio = 1.0)
    val r = Harness.run(new PBS(PaperExample.pc, pi), fixture, maxEcStar = 5.0)
    assert(r.finalRecall === 1.0)
    assert(r.aucStar(1.0) === 1.0) // first 3 emissions are the 3 matches
  }

  test("methods() includes PSN only when an expert key exists") {
    def names(ds: ErDataset) = Experiments.aucMatrix(ds).map(_.name)
    val withKey = names(fixture)
    assert(withKey.contains("PSN"))
    val noKey = names(fixture.copy(psnKey = None))
    assert(!noKey.contains("PSN"))
    assert(noKey === Seq("SA-PSN", "SA-PSAB", "LS-PSN", "GS-PSN", "PBS", "PPS"))
  }

  test("the matrix's GS-PSN runs the paper's w_max, budgeted on freebase") {
    def gsPsn(ds: ErDataset) = Experiments.method(ds, "GS-PSN").asInstanceOf[GSPSN]
    assert(gsPsn(fixture).effectiveWMax === 20)
    assert(gsPsn(HeterogeneousData.movies(0.02)).effectiveWMax === 200)
    val freebase = HeterogeneousData.freebase(0.5)
    val nl = NeighborList.build(freebase.pc).size
    assert(gsPsn(freebase).effectiveWMax === (Experiments.gsPsnBudget(nl) / nl).toInt)
  }

  test("defaultWMax follows the paper: 20 structured, 200 heterogeneous") {
    assert(Harness.defaultWMax(PaperExample.pc) === 20)
    val cc = ProfileCollection(
      Vector(Profile(0, 1, Vector("a" -> "x")), Profile(1, 2, Vector("a" -> "x"))),
      CleanCleanEr)
    assert(Harness.defaultWMax(cc) === 200)
  }

  test("timed reports init time, comparison time and emission count") {
    val t = Harness.timed(() => SAPSN(PaperExample.pc), fixture, MatchFunctions.JaccardFn, 2.0)
    assert(t.initMillis >= 0.0)
    assert(t.comparisonMicros >= 0.0)
    assert(t.emitted > 0)
    assert(t.emitted <= 2 * PaperExample.gt.size)
  }

  test("meanAucStar averages per method across datasets") {
    val r1 = MethodResult("M", "d1", Array(1.0), 1)
    val r2 = MethodResult("M", "d2", Array(0.0), 1)
    val mean = Harness.meanAucStar(Seq(r1, r2), 1.0)
    assert(mean === Seq(("M", 0.5)))
  }

  test("runAll produces one result per (dataset, method)") {
    val ds = StructuredData.census()
    val rs = Experiments.runAll(Seq(ds), maxEcStar = 1.0)
    assert(rs.size === 7)
    assert(rs.map(_.method).distinct.size === 7)
  }

  test("report tables render without error") {
    val ds = fixture
    val rs = Seq(Harness.run(SAPSN(PaperExample.pc), ds, 2.0))
    assert(Report.aucTable(rs, Seq(1.0, 2.0)).nonEmpty)
    assert(Report.meanAucTable(rs, Seq(1.0)).nonEmpty)
    assert(Report.datasetCharacteristics(Seq(ds)).contains("fixture"))
  }
}
