package repro.core

import java.util.Arrays
import scala.collection.{AbstractIterator, immutable}

/** A sorted Comparison List of LS-PSN / GS-PSN in 8 bytes a stored
  * comparison (against ~40 for a boxed `Comparison` and its reference): the
  * canonical pairs packed as `i << 32 | j`, bucketed into one run per
  * distinct weight, and the d distinct weights. A `Comparison` is built only
  * when an element is read.
  *
  * The order is `Comparison.byDescendingWeight`: descending weight in
  * `java.lang.Double.compare` order, then ascending (i, j). The runs are in
  * weight order from the start; a run's pairs are sorted the first time
  * `iterator` or `apply` reaches it, once, under the list's lock, so a
  * consumer that reads only the top runs never pays for sorting the rest.
  *
  * @param pairs   the pairs, run `r` at `start(r) until start(r + 1)`
  * @param weights the weight of every run
  */
final class ComparisonList private (pairs: Array[Long], start: Array[Int], weights: Array[Double])
    extends immutable.IndexedSeq[Comparison] {

  private val sortedRuns = new Array[Boolean](weights.length)

  def length: Int = pairs.length

  def apply(k: Int): Comparison = {
    if (k < 0 || k >= pairs.length) throw new IndexOutOfBoundsException(s"$k is out of bounds (length $length)")
    val found = Arrays.binarySearch(start, k)
    val r = if (found >= 0) found else -found - 2
    sortRun(r)
    comparison(k, r)
  }

  override def iterator: Iterator[Comparison] = new AbstractIterator[Comparison] {
    private var k = 0
    private var r = -1 // the run of the last element read

    def hasNext: Boolean = k < pairs.length

    def next(): Comparison = {
      if (k >= pairs.length) throw new NoSuchElementException("next on an exhausted Comparison List")
      if (r < 0 || k == start(r + 1)) { r += 1; sortRun(r) }
      val c = comparison(k, r)
      k += 1
      c
    }
  }

  private def comparison(k: Int, r: Int): Comparison = {
    val p = pairs(k)
    Comparison((p >>> 32).toInt, p.toInt, weights(r))
  }

  private def sortRun(r: Int): Unit = synchronized {
    if (!sortedRuns(r)) {
      Arrays.sort(pairs, start(r), start(r + 1))
      sortedRuns(r) = true
    }
  }
}

object ComparisonList {

  /** `n` comparisons of a window scan: their packed pairs and the ids of
    * their negated weights in `negatedWeights`. Descending weight is
    * ascending negated weight; -(-w) restores w bit for bit.
    */
  private[core] final class Part(
      val pairs: Array[Long],
      val ids: Array[Int],
      val n: Int,
      val negatedWeights: RankSort.Dictionary) {

    /** The number of comparisons of every id. */
    def counts: Array[Int] = {
      val c = new Array[Int](negatedWeights.size)
      var t = 0
      while (t < n) { c(ids(t)) += 1; t += 1 }
      c
    }
  }

  /** The list of the comparisons of every part; no pair may occur twice.
    * The distinct weights are ranked through one dictionary, and every part
    * counting-sorts its pairs by rank into its own slots of each run, in
    * parallel. No run is sorted yet.
    */
  private[core] def of(parts: Seq[Part]): ComparisonList = {
    val global = new RankSort.Dictionary
    val globalIds = parts.map(p => Array.tabulate(p.negatedWeights.size)(k => global.id(p.negatedWeights.value(k))))
    val (rankOfId, negatedDistinct) = global.ranked()
    val d = negatedDistinct.length
    val counts = ForkJoin.all(parts.length)(parts(_).counts)
    val start = new Array[Int](d + 1)
    for ((c, g) <- counts.zip(globalIds); k <- c.indices) start(rankOfId(g(k)) + 1) += c(k)
    var r = 0
    while (r < d) { start(r + 1) += start(r); r += 1 }
    // every part's next slot for each of its ids, parts in order within a run
    val next = Arrays.copyOf(start, d)
    val slots = counts.zip(globalIds).map { case (c, g) =>
      Array.tabulate(c.length) { k => val rk = rankOfId(g(k)); val s = next(rk); next(rk) += c(k); s }
    }
    val out = new Array[Long](start(d))
    ForkJoin.all(parts.length) { q =>
      val p = parts(q)
      val slot = slots(q)
      var t = 0
      while (t < p.n) {
        val k = p.ids(t)
        out(slot(k)) = p.pairs(t)
        slot(k) += 1
        t += 1
      }
    }
    new ComparisonList(out, start, negatedDistinct.map(-_))
  }
}

/** The window scan of the weighted Neighbor List methods (Algorithm 1,
  * Sec. 5.1), shared by LS-PSN (one window size) and GS-PSN (the range
  * `[1, w_max]`).
  */
private[core] object WindowScan {

  /** Placement-window steps below which a range is not worth a task of its
    * own.
    */
  private val MinWork = 1L << 15

  /** The sorted Comparison List of the window sizes `[wLo, wHi]`, scanned in
    * up to one range of profiles per processor.
    */
  def comparisons(pc: ProfileCollection, nl: NeighborList, wLo: Int, wHi: Int): ComparisonList = {
    val ids = pc.source1Ids.toArray
    val windows = (wHi - wLo + 1).toLong
    comparisons(pc, nl, wLo, wHi, ids, ForkJoin.ranges(ids.length, MinWork)(x => nl.positionsOf(ids(x)).length * windows))
  }

  /** The same list, with `pc.source1Ids` cut into `ranges` contiguous
    * ranges of about equal placements, scanned in parallel. Every pair is
    * found in one range only, and the list orders the pairs totally, so the
    * cut does not change the list.
    */
  def comparisons(pc: ProfileCollection, nl: NeighborList, wLo: Int, wHi: Int, ranges: Int): ComparisonList = {
    val ids = pc.source1Ids.toArray
    comparisons(pc, nl, wLo, wHi, ids, ForkJoin.cut(ids.length, ranges)(x => nl.positionsOf(ids(x)).length.toLong))
  }

  private def comparisons(
      pc: ProfileCollection,
      nl: NeighborList,
      wLo: Int,
      wHi: Int,
      ids: Array[Int],
      bounds: Array[Int]): ComparisonList =
    ComparisonList.of(ForkJoin.all(bounds.length - 1)(q => scan(pc, nl, ids, bounds(q), bounds(q + 1), wLo, wHi)))

  /** The comparisons of the profiles `ids(from until until)`.
    *
    * The outer loop runs over all profiles for Dirty ER and only the P1 side
    * for Clean-clean ER (Sec. 5.1.1). For each profile `i` it counts, over
    * both directions from every position of `i` (Algorithm 1 lines 8–16),
    * how often each valid neighbor co-occurs with it — Dirty ER: `j < i`,
    * so every pair is counted from its larger id only; Clean-clean ER: `j`
    * on the other source. The counts live in one dense array plus the list
    * of neighbors touched, reset after each profile. Every counted neighbor
    * is weighted with RCF (lines 17–19); the frequencies are summed over
    * `wHi - wLo + 1` window sizes.
    */
  private def scan(
      pc: ProfileCollection,
      nl: NeighborList,
      ids: Array[Int],
      from: Int,
      until: Int,
      wLo: Int,
      wHi: Int): ComparisonList.Part = {
    val windows = wHi - wLo + 1
    val dirty = pc.erType == DirtyEr
    val entries = nl.entries
    val count = new Array[Int](pc.size)
    val touched = new Array[Int](pc.size)
    val negatedWeights = new RankSort.Dictionary
    var placements = 0L
    var x = from
    while (x < until) { placements += nl.positionsOf(ids(x)).length; x += 1 }
    // At most one pair per (position, window size, direction).
    val bound = math.min(Int.MaxValue - 8L, 2 * placements * windows).toInt
    var pairs = new Array[Long](math.min(bound.toLong, math.max(16L, placements)).toInt)
    var weightIds = new Array[Int](pairs.length)
    var n = 0
    x = from
    while (x < until) {
      val i = ids(x)
      val positions = nl.positionsOf(i)
      val srcI = pc.source(i)
      var nt = 0
      var pi = 0
      while (pi < positions.length) {
        val pos = positions(pi)
        var w = wLo
        while (w <= wHi) {
          if (pos + w < entries.length) {
            val j = entries(pos + w)
            if (if (dirty) j < i else pc.source(j) != srcI) {
              if (count(j) == 0) { touched(nt) = j; nt += 1 }
              count(j) += 1
            }
          }
          if (pos - w >= 0) {
            val j = entries(pos - w)
            if (if (dirty) j < i else pc.source(j) != srcI) {
              if (count(j) == 0) { touched(nt) = j; nt += 1 }
              count(j) += 1
            }
          }
          w += 1
        }
        pi += 1
      }
      if (n + nt > pairs.length) {
        val cap = math.min(bound.toLong, math.max(n + nt, pairs.length * 2L)).toInt
        pairs = Arrays.copyOf(pairs, cap)
        weightIds = Arrays.copyOf(weightIds, cap)
      }
      val lenI = positions.length
      var t = 0
      while (t < nt) {
        val j = touched(t)
        pairs(n) = if (i < j) i.toLong << 32 | j else j.toLong << 32 | i
        weightIds(n) = negatedWeights.id(-Rcf.weight(count(j), lenI, nl.positionsOf(j).length, windows))
        count(j) = 0
        n += 1
        t += 1
      }
      x += 1
    }
    new ComparisonList.Part(pairs, weightIds, n, negatedWeights)
  }
}

/** Local Schema-Agnostic PSN (Sec. 5.1.1, Algorithms 1 and 2).
  *
  * For each window size w (starting at 1), every comparison found at distance
  * w in the Neighbor List is weighted with the RCF scheme via the Position
  * Index, sorted in descending weight, and emitted; when the window's
  * Comparison List is exhausted the window grows. The order is *local* to a
  * window, so a pair may be re-emitted under a later window — the drawback
  * GS-PSN removes.
  */
final class LSPSN(pc: ProfileCollection, nl: NeighborList) extends ProgressiveMethod {
  val name = "LS-PSN"

  /** The sorted Comparison List of one window size (Algorithm 1 for w). */
  def windowComparisons(w: Int): ComparisonList = WindowScan.comparisons(pc, nl, w, w)

  def emissions: Iterator[Comparison] =
    Iterator.from(1).takeWhile(_ < nl.size).flatMap(w => windowComparisons(w).iterator)
}

/** Global Schema-Agnostic PSN (Sec. 5.1.2).
  *
  * Same machinery as LS-PSN, but the co-occurrence frequencies are
  * accumulated over *all* window sizes in `[1, w_max]` before weighting, and
  * the resulting Comparison List is ordered once, globally. Each pair is
  * emitted at most once; the stream ends when the list is exhausted.
  *
  * `maxComparisons` reproduces the paper's footnote 9: on freebase, GS-PSN's
  * Comparison List had to be limited to the available memory (80 GB), which
  * truncated its window range and capped its final recall below 20 %. Since
  * every window contributes up to |NL| comparisons, a budget of `c` stored
  * comparisons bounds the usable window range to ~`c / |NL|`. The list is a
  * packed `ComparisonList`, 8 bytes a stored comparison, so `c` stored
  * comparisons take ~8·`c` bytes of heap; while it is built, the scan's
  * ranges hold 12 bytes more a comparison (pair and weight id).
  *
  * @param wMax the largest window size, at least 1
  */
final class GSPSN(
    pc: ProfileCollection,
    nl: NeighborList,
    wMax: Int,
    maxComparisons: Long = Long.MaxValue) extends ProgressiveMethod {
  require(wMax >= 1, s"GS-PSN needs wMax >= 1: got $wMax")
  val name = "GS-PSN"

  /** The window range that fits the comparison budget. */
  def effectiveWMax: Int =
    math.min(wMax.toLong, math.max(1L, maxComparisons / math.max(1, nl.size))).toInt

  /** The single, global Comparison List over windows `[1, effectiveWMax]`. */
  def globalComparisons(): ComparisonList = WindowScan.comparisons(pc, nl, 1, effectiveWMax)

  def emissions: Iterator[Comparison] = globalComparisons().iterator
}
