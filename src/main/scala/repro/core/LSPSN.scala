package repro.core

import java.util.Arrays
import scala.collection.{AbstractIterator, immutable}

/** A sorted Comparison List of LS-PSN / GS-PSN in 8 bytes a stored
  * comparison (against ~40 for a boxed `Comparison` and its reference): the
  * window scan's ranges as they return, each with its canonical pairs
  * packed as `i << 32 | j` and grouped into one run per distinct weight.
  * A `Comparison` is built only when an element is read.
  *
  * The order is descending weight in `java.lang.Double.compare` order,
  * then ascending (i, j). Every iterator merges the ranges on read: it
  * takes the next weight, gathers that weight's run from every range that
  * holds it into its own buffer and sorts it, so a consumer that reads
  * only the top weights never pays for sorting the rest. Iterators share
  * only immutable arrays.
  */
final class ComparisonList private[core] (parts: IndexedSeq[ComparisonList.Part])
    extends immutable.Iterable[Comparison] {

  override val size: Int = parts.map(_.pairs.length).sum

  override def knownSize: Int = size

  override def iterator: Iterator[Comparison] = new AbstractIterator[Comparison] {
    private val runOf = new Array[Int](parts.length) // every part's next run
    private var run = new Array[Long](16) // the pairs of the weight being read
    private var n = 0
    private var k = 0
    private var weight = 0.0

    def hasNext: Boolean = k < n || gather()

    def next(): Comparison = {
      if (!hasNext) throw new NoSuchElementException("next on an exhausted Comparison List")
      val p = run(k)
      k += 1
      Comparison((p >>> 32).toInt, p.toInt, weight)
    }

    /** Reads the smallest negated weight of the parts' next runs, the first
      * part's value on a tie, and gathers and sorts its pairs from every
      * part; false when every part is read.
      */
    private def gather(): Boolean = {
      var min = Double.NaN
      var found = false
      var q = 0
      while (q < parts.length) {
        val p = parts(q)
        if (runOf(q) < p.negated.length && (!found || java.lang.Double.compare(p.negated(runOf(q)), min) < 0)) {
          min = p.negated(runOf(q))
          found = true
        }
        q += 1
      }
      if (found) {
        n = 0
        k = 0
        q = 0
        while (q < parts.length) {
          val p = parts(q)
          val r = runOf(q)
          if (r < p.negated.length && java.lang.Double.compare(p.negated(r), min) == 0) {
            val length = p.start(r + 1) - p.start(r)
            if (n + length > run.length) run = Arrays.copyOf(run, math.max(n + length, 2 * run.length))
            System.arraycopy(p.pairs, p.start(r), run, n, length)
            n += length
            runOf(q) = r + 1
          }
          q += 1
        }
        Arrays.sort(run, 0, n)
        weight = -min
      }
      found
    }
  }
}

object ComparisonList {

  /** The comparisons of one window-scan range, grouped by weight: run `r`
    * is `pairs(start(r) until start(r + 1))`, of the negated weight
    * `negated(r)`; the negated weights are distinct and ascending in
    * `Double.compare` order. Descending weight is ascending negated
    * weight; -(-w) restores w bit for bit.
    */
  private[core] final class Part(val pairs: Array[Long], val start: Array[Int], val negated: Array[Double])

  /** The first `n` packed pairs grouped by their negated weights, the
    * first occurrence of a weight representing it.
    */
  private[core] def part(pairs: Array[Long], negated: Array[Double], n: Int): Part = {
    val (ranks, distinct) = RankSort.rank(negated, n)
    val (order, start) = RankSort.group(ranks, distinct.length)
    val grouped = new Array[Long](n)
    var t = 0
    while (t < n) { grouped(t) = pairs(order(t)); t += 1 }
    new Part(grouped, start, distinct)
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

  /** The Neighbor List as the scan counts it: the ids it counts, in
    * position order, and `before(pos)`, the number of those ids at positions
    * before `pos` (0 ≤ `pos` ≤ |NL|). The ids counted in positions `[a, b)`
    * are then the slice `ids(before(a) until before(b))`.
    *
    * Dirty ER counts every entry, so the view is the Neighbor List itself
    * and `before(pos) = pos`. Clean-clean ER counts only the positions whose
    * source is not 1 (the outer profiles are P1's): a copy of their ids and
    * the prefix counts, 4 bytes per partner placement plus 4 per position.
    */
  final class PartnerView private (val ids: Array[Int], starts: Array[Int]) {
    def before(pos: Int): Int = if (starts == null) pos else starts(pos)
  }

  object PartnerView {
    def apply(pc: ProfileCollection, nl: NeighborList): PartnerView =
      if (pc.erType == DirtyEr) new PartnerView(nl.entries, null)
      else {
        val starts = new Array[Int](nl.size + 1)
        var pos = 0
        while (pos < nl.size) {
          starts(pos + 1) = starts(pos) + (if (pc.source(nl.entries(pos)) != 1) 1 else 0)
          pos += 1
        }
        val ids = new Array[Int](starts(nl.size))
        pos = 0
        while (pos < nl.size) {
          if (starts(pos + 1) > starts(pos)) ids(starts(pos)) = nl.entries(pos)
          pos += 1
        }
        new PartnerView(ids, starts)
      }
  }

  /** The sorted Comparison List of the window sizes `[wLo, wHi]`, scanned in
    * the ranges of profiles `ForkJoin.ranges` cuts.
    */
  def comparisons(pc: ProfileCollection, nl: NeighborList, view: PartnerView, wLo: Int, wHi: Int): ComparisonList = {
    val ids = pc.source1Ids.toArray
    val windows = (wHi - wLo + 1).toLong
    comparisons(pc, nl, view, wLo, wHi, ids,
      ForkJoin.ranges(ids.length, MinWork)(x => nl.positionsOf(ids(x)).length * windows))
  }

  /** The same list, with the profiles `ids` (`pc.source1Ids`) cut into the
    * ranges `bounds`, scanned in parallel. Every pair is found in one range
    * only, and the list orders the pairs totally, so the cut does not change
    * the list. Each thread counts in its own `Counts`, made once.
    */
  private[core] def comparisons(
      pc: ProfileCollection,
      nl: NeighborList,
      view: PartnerView,
      wLo: Int,
      wHi: Int,
      ids: Array[Int],
      bounds: Array[Int]): ComparisonList =
    new ComparisonList(ForkJoin.all(bounds.length - 1, () => new Counts(pc.size)) { (counts, q) =>
      scan(pc, nl, view, ids, bounds(q), bounds(q + 1), wLo, wHi, counts)
    })

  /** A dense count per profile and the list of the profiles touched, of
    * one thread. Every count is 0 between two profiles of a scan.
    */
  private final class Counts(size: Int) {
    val count = new Array[Int](size)
    // One slot more than the profiles: a step writes touched(nt) before it
    // knows whether its id is new, and nt reaches |P| when every id is.
    val touched = new Array[Int](size + 1)
  }

  /** The comparisons of the profiles `ids(from until until)`.
    *
    * The outer loop runs over all profiles for Dirty ER and only the P1 side
    * for Clean-clean ER (Sec. 5.1.1). For each profile `i` it counts, over
    * both directions from every position `pos` of `i` (Algorithm 1 lines
    * 8–16), how often each neighbor in `view` co-occurs with it: the two
    * slices of `view.ids` at positions `[pos - wHi, pos - wLo]` and
    * `[pos + wLo, pos + wHi]`, clipped to the list. Clean-clean ER thus visits
    * only partners on the other source. Dirty ER visits every entry, `i`
    * itself included, and counts a neighbor only if `j < i`, so every pair
    * is counted from its larger id only. The view of
    * Clean-clean ER costs 4 bytes per Neighbor List position plus 4 per
    * partner placement: GS-PSN builds it for its one scan, LS-PSN once for
    * all its windows. Dirty ER's view is the Neighbor List itself.
    *
    * The counts live in the thread's `counts`: one dense array plus the list
    * of neighbors touched, reset after each profile. The counting loop has
    * no data-dependent branch: every step writes its id to the next free
    * slot of `touched` and moves past it only on the first touch of a kept
    * id. Every touched neighbor is weighted with RCF (lines 17–19); the
    * frequencies are summed over `wHi - wLo + 1` window sizes.
    */
  private def scan(
      pc: ProfileCollection,
      nl: NeighborList,
      view: PartnerView,
      ids: Array[Int],
      from: Int,
      until: Int,
      wLo: Int,
      wHi: Int,
      counts: Counts): ComparisonList.Part = {
    val windows = wHi - wLo + 1
    val dirty = pc.erType == DirtyEr
    val size = nl.size.toLong
    val count = counts.count
    val touched = counts.touched
    var placements = 0L
    var x = from
    while (x < until) { placements += nl.positionsOf(ids(x)).length; x += 1 }
    // At most one pair per (position, window size, direction).
    val bound = math.min(Int.MaxValue - 8L, 2 * placements * windows).toInt
    var pairs = new Array[Long](math.min(bound.toLong, math.max(16L, placements)).toInt)
    var negated = new Array[Double](pairs.length)
    var n = 0
    // The slice bound of Neighbor List position p, clipped to [0, |NL|].
    def at(p: Long): Int = view.before(math.max(0L, math.min(size, p)).toInt)
    x = from
    while (x < until) {
      val i = ids(x)
      val limit = if (dirty) i else Int.MaxValue
      val positions = nl.positionsOf(i)
      var nt = 0
      var pi = 0
      while (pi < positions.length) {
        val pos = positions(pi).toLong
        nt = tally(view.ids, at(pos - wHi), at(pos - wLo + 1), limit, count, touched, nt)
        nt = tally(view.ids, at(pos + wLo), at(pos + wHi + 1), limit, count, touched, nt)
        pi += 1
      }
      if (n + nt > pairs.length) {
        val cap = math.min(bound.toLong, math.max(n + nt, pairs.length * 2L)).toInt
        pairs = Arrays.copyOf(pairs, cap)
        negated = Arrays.copyOf(negated, cap)
      }
      val lenI = positions.length
      var t = 0
      while (t < nt) {
        val j = touched(t)
        pairs(n) = if (i < j) i.toLong << 32 | j else j.toLong << 32 | i
        negated(n) = -Rcf.weight(count(j), lenI, nl.positionsOf(j).length, windows)
        n += 1
        count(j) = 0
        t += 1
      }
      x += 1
    }
    ComparisonList.part(pairs, negated, n)
  }

  /** Counts every id below `limit` of `ids(from until until)` in `count`,
    * and lists the ids touched for the first time in `touched` from slot
    * `nt` on; returns the new number of touched ids. Each step writes its id
    * to slot `nt` and moves past it only on the first touch of a kept id,
    * with no branch.
    */
  private def tally(
      ids: Array[Int],
      from: Int,
      until: Int,
      limit: Int,
      count: Array[Int],
      touched: Array[Int],
      nt: Int): Int = {
    var t = nt
    var s = from
    while (s < until) {
      val j = ids(s)
      val keep = (j - limit) >>> 31 // 1 if j < limit, else 0
      val c = count(j)
      touched(t) = j
      t += ((c - 1) >>> 31) & keep // 1 if kept and c == 0, else 0
      count(j) = c + keep
      s += 1
    }
    t
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

  /** The Neighbor List as the window scan counts it, built once for every
    * window.
    */
  private lazy val view = WindowScan.PartnerView(pc, nl)

  /** The sorted Comparison List of one window size (Algorithm 1 for w). */
  def windowComparisons(w: Int): ComparisonList = WindowScan.comparisons(pc, nl, view, w, w)

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
  * comparisons take ~8·`c` bytes of heap; while it is built, a scan range
  * holds at most 32 bytes a comparison (pair and negated weight, then rank,
  * grouped index and grouped pair), and an iterator holds the pairs of the
  * weight it reads.
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
  def globalComparisons(): ComparisonList =
    WindowScan.comparisons(pc, nl, WindowScan.PartnerView(pc, nl), 1, effectiveWMax)

  def emissions: Iterator[Comparison] = globalComparisons().iterator
}
