package repro.perfbench

import repro.core.{Comparison, GroundTruth, ProfileCollection}
import repro.eval.Metrics

/** One closed-loop pass over a method: the consumer pulls one emission at a
  * time and handles it before pulling the next.
  *
  * @param firstNs  construction (pre-processing included) to the first
  *                 emission; the time to learn the stream is empty if it is
  * @param endNs    construction to the `budget`-th emission, or to the end
  *                 of the stream if it ends first
  * @param pairs    the emitted pairs, packed by [[Measure.pack]]
  * @param emitted  number of emissions pulled
  * @param ended    the stream ended before the budget
  * @param timesNs  when each emission arrived, relative to construction
  *                 (only when the pass recorded them)
  */
final case class Pass(
    firstNs: Long,
    endNs: Long,
    pairs: Array[Long],
    emitted: Int,
    ended: Boolean,
    timesNs: Option[Array[Long]]) {

  def comparisons: Iterator[Comparison] =
    Iterator.range(0, emitted).map(k => Comparison(Measure.left(pairs(k)), Measure.right(pairs(k)), 0.0))

  def sameStream(o: Pass): Boolean =
    emitted == o.emitted && java.util.Arrays.equals(pairs, o.pairs)
}

/** Progressive quality of one stream: AUC*@1, AUC*@10 and recall at
  * ec* = 10; `curveOk` is false when the recall curve is not monotone or
  * holds NaN (e.g. an empty ground truth).
  */
final case class Quality(aucStar1: Double, aucStar10: Double, recallAtEc10: Double, curveOk: Boolean)

/** The benchmark's own metric code: the closed loop, the emission-gap and
  * distinctness measures and the output checks.
  */
object Measure {

  def pack(i: Int, j: Int): Long = (i.toLong << 32) | (j.toLong & 0xffffffffL)
  def left(p: Long): Int = (p >>> 32).toInt
  def right(p: Long): Int = p.toInt

  /** The emission budget of ec* = `ecStar`: `ecStar·|D_P|` comparisons. */
  def budget(gt: GroundTruth, ecStar: Double = 10.0): Int = math.round(ecStar * gt.size).toInt

  /** Run one method in a closed loop until `budget` emissions or the end of
    * its stream. `start` builds the method and returns its stream; it runs
    * inside the timed region, so pre-processing is charged to the method.
    * `onEmit` is the consumer's work per emission (the match function);
    * `onFirst` runs once, right after the first emission, outside no timer
    * it could hide in (callers use it to sample the heap).
    *
    * With an enabled tracer, a span `<name>` runs from construction to the
    * first emission, with the stream's first `hasNext` as span `first_pull`.
    */
  def closedLoop(
      name: String,
      start: Tracer => Iterator[Comparison],
      budget: Int,
      tr: Tracer,
      clock: () => Long = () => System.nanoTime(),
      recordTimes: Boolean = false,
      onFirst: () => Unit = () => ())(onEmit: Comparison => Unit): Pass = {
    val pairs = new Array[Long](budget)
    val times = if (recordTimes) new Array[Long](budget) else null
    val root = tr.start(name)
    val t0 = clock()
    val it = start(tr)
    var more = budget > 0 && tr.span("first_pull")(it.hasNext)
    var first = -1L
    var n = 0
    while (more) {
      val c = it.next()
      val t = clock() - t0
      if (n == 0) { first = t; tr.end(root); onFirst() }
      if (times != null) times(n) = t
      pairs(n) = pack(c.i, c.j)
      onEmit(c)
      n += 1
      more = n < budget && it.hasNext
    }
    val end = clock() - t0
    if (n == 0) tr.end(root)
    Pass(if (first < 0) end else first, end, pairs, n, n < budget, Option(times))
  }

  /** The longest wait between two consecutive emissions (0 with fewer than
    * two) — Table 1's "unstable response time" made measurable.
    */
  def maxGapNs(times: Array[Long], n: Int): Long = {
    var g = 0L
    var k = 1
    while (k < n) { g = math.max(g, times(k) - times(k - 1)); k += 1 }
    g
  }

  /** Mean emission cost between the first and the last emission. */
  def nsPerEmission(p: Pass): Double =
    if (p.emitted < 2) p.firstNs.toDouble
    else (p.timesNs.get(p.emitted - 1) - p.firstNs).toDouble / (p.emitted - 1)

  /** Number of distinct pairs among the emitted ones. */
  def distinct(p: Pass): Int = {
    val s = java.util.Arrays.copyOf(p.pairs, p.emitted)
    java.util.Arrays.sort(s)
    var d = if (s.isEmpty) 0 else 1
    var k = 1
    while (k < s.length) { if (s(k) != s(k - 1)) d += 1; k += 1 }
    d
  }

  def distinctRatio(p: Pass): Double = if (p.emitted == 0) 1.0 else distinct(p).toDouble / p.emitted

  /** Recall after each emission, AUC*@{1,10} (a stream that ends early is
    * padded with its final recall) and recall at ec* = 10.
    */
  def quality(p: Pass, gt: GroundTruth): Quality = {
    val curve = Metrics.recallCurve(p.comparisons, gt, p.emitted)
    val monotone = curve.indices.drop(1).forall(k => curve(k) >= curve(k - 1))
    val auc1 = Metrics.aucStar(curve, gt.size, 1.0)
    val auc10 = Metrics.aucStar(curve, gt.size, 10.0)
    val last = if (curve.isEmpty) 0.0 else curve(curve.length - 1)
    val finite = !curve.exists(_.isNaN) && !auc1.isNaN && !auc10.isNaN
    Quality(auc1, auc10, last, monotone && finite)
  }

  /** The output checks of one pass; an empty result means it passed.
    * Every comparison must be canonical and valid for the ER type, and a
    * method that promises no repeats must not repeat a pair.
    */
  def check(p: Pass, pc: ProfileCollection, noRepeats: Boolean): Seq[String] = {
    val bad = (0 until p.emitted).find { k =>
      val i = left(p.pairs(k)); val j = right(p.pairs(k))
      !(0 <= i && i < j && j < pc.size && pc.validPair(i, j))
    }
    bad.map(k => s"emission $k is not a canonical valid pair: (${left(p.pairs(k))}, ${right(p.pairs(k))})").toSeq ++
      (if (noRepeats && distinct(p) != p.emitted) Seq(s"${p.emitted - distinct(p)} repeated pairs") else Nil)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}
