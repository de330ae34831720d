package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class MeasureSpec extends AnyFunSuite {
  import PaperExample.{gt, pc}

  /** A clock that advances by `step` on every reading, starting at 0. */
  private def ticking(step: Long): () => Long = {
    var t = -step
    () => { t += step; t }
  }

  private def stream(pairs: (Int, Int)*): Tracer => Iterator[Comparison] =
    _ => pairs.iterator.map { case (i, j) => Comparison.of(i, j) }

  private val off = new Tracer(false)

  test("time to ec*=10 is the end of the stream when it ends before the budget") {
    val list = new GSPSN(pc, NeighborList.build(pc), wMax = 2).globalComparisons()
    val budget = Measure.budget(gt)
    assert(budget == 40 && list.size < budget)
    val p = Measure.closedLoop("GS-PSN", _ => new GSPSN(pc, NeighborList.build(pc), 2).emissions,
      budget, off, ticking(1000))(_ => ())
    // one reading at construction, one per emission, one at the end
    assert(p.ended)
    assert(p.emitted == list.size)
    assert(p.firstNs == 1000)
    assert(p.endNs == (list.size + 1) * 1000L)
  }

  test("time to ec*=10 stops at the budget on a longer stream") {
    val p = Measure.closedLoop("SA-PSN", _ => SAPSN(pc).emissions, 7, off, ticking(10))(_ => ())
    assert(!p.ended)
    assert(p.emitted == 7)
    assert(p.endNs == 80)
  }

  test("an empty stream reports its end as the first emission") {
    val p = Measure.closedLoop("none", stream(), 40, off, ticking(5))(_ => ())
    assert(p.emitted == 0 && p.ended)
    assert(p.firstNs == p.endNs && p.endNs == 5)
  }

  test("AUC* pads a stream that ends early with its final recall") {
    // a non-match, then one of the four matches, then the stream ends
    val p = Measure.closedLoop("short", stream((0, 5), (0, 1)), Measure.budget(gt), off)(_ => ())
    val q = Measure.quality(p, gt)
    val padded = (0.0 + 0.25 * 39) / 4
    val ideal = (0.25 + 0.5 + 0.75 + 1.0 * 37) / 4
    assert(math.abs(q.aucStar10 - padded / ideal) < 1e-12)
    assert(q.aucStar10 > (0.0 + 0.25) / 4 / ideal) // what the two emissions alone would give
    assert(q.recallAtEc10 == 0.25)
    assert(q.curveOk)
  }

  test("the longest gap between emissions") {
    assert(Measure.maxGapNs(Array(0L, 5L, 7L, 20L, 21L), 5) == 13)
    assert(Measure.maxGapNs(Array(3L), 1) == 0)
    assert(Measure.maxGapNs(Array(0L, 100L), 1) == 0)
    val readings = Iterator(0L, 10L, 11L, 50L, 52L, 60L)
    val p = Measure.closedLoop("gaps", stream((0, 1), (0, 2), (1, 2), (3, 4)), 40, off,
      () => readings.next(), recordTimes = true)(_ => ())
    assert(p.timesNs.get.take(p.emitted).toSeq == Seq(10L, 11L, 50L, 52L))
    assert(Measure.maxGapNs(p.timesNs.get, p.emitted) == 39)
    assert(Measure.nsPerEmission(p) == 14.0)
  }

  test("an empty ground truth fails the NaN guard") {
    val p = Measure.closedLoop("PBS", stream((0, 1), (3, 4)), 10, off)(_ => ())
    assert(!Measure.quality(p, GroundTruth(Set.empty)).curveOk)
    assert(Measure.quality(p, gt).curveOk)
  }

  test("checks flag repeated and invalid pairs") {
    val rep = Measure.closedLoop("rep", stream((0, 1), (1, 0), (3, 4)), 10, off)(_ => ())
    assert(Measure.distinct(rep) == 2)
    assert(Measure.distinctRatio(rep) == 2.0 / 3)
    assert(Measure.check(rep, pc, noRepeats = false).isEmpty)
    assert(Measure.check(rep, pc, noRepeats = true).nonEmpty)
    val cc = ProfileCollection(pc.profiles.map(p => p.copy(source = if (p.id < 3) 1 else 2)), CleanCleanEr)
    val sameSource = Measure.closedLoop("cc", stream((0, 1)), 10, off)(_ => ())
    assert(Measure.check(sameSource, cc, noRepeats = true).nonEmpty)
    val cross = Measure.closedLoop("cc", stream((0, 4)), 10, off)(_ => ())
    assert(Measure.check(cross, cc, noRepeats = true).isEmpty)
  }

  test("spans nest and a span's self time excludes its children") {
    val tr = new Tracer(true, ticking(1))
    tr.span("outer") { tr.span("inner")(()); tr.span("inner")(()) }
    val outer = tr.named("outer").head
    assert(tr.children(outer).map(_.name) == Seq("inner", "inner"))
    assert(outer.durNs == 5 && tr.selfNs(outer) == 3)
  }

  test("a traced pass splits its first emission into the method's stages") {
    val tr = new Tracer(true)
    Measure.closedLoop("PBS", Workloads.driverRecipe("PBS", pc, 20).start, 40, tr)(_ => ())
    val root = tr.named("PBS").head
    assert(tr.children(root).map(_.name) == Seq("tb.workflow", "emissions", "first_pull"))
  }
}
