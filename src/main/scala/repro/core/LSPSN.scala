package repro.core

import java.util.Arrays
import scala.collection.{AbstractIterator, immutable}

/** A sorted Comparison List of LS-PSN / GS-PSN in 8 bytes a stored
  * comparison (against ~40 for a boxed `Comparison` and its reference): its
  * canonical pairs packed as `i << 32 | j` and grouped into one run per
  * distinct weight. Run `r` is `pairs(start(r) until start(r + 1))`, of the
  * negated weight `negated(r)`; the negated weights are distinct and
  * ascending in `java.lang.Double.compare` order. Descending weight is
  * ascending negated weight; -(-w) restores w bit for bit.
  *
  * The order is descending weight, then ascending (i, j). Every iterator
  * walks the runs in order and sorts each run into its own buffer when it
  * first reaches it, so a consumer that reads only the top weights never
  * pays for sorting the rest. Iterators share only immutable arrays, and a
  * `Comparison` is built only when an element is read.
  */
final class ComparisonList private[core] (pairs: Array[Long], start: Array[Int], negated: Array[Double])
    extends immutable.Iterable[Comparison] {

  override def size: Int = pairs.length

  override def knownSize: Int = size

  override def iterator: Iterator[Comparison] = new AbstractIterator[Comparison] {
    private var r = 0 // the next run to sort
    private var run = new Array[Long](16) // the sorted pairs of run r - 1
    private var n, k = 0 // run(k until n) is left to read

    def hasNext: Boolean = {
      while (k == n && r < negated.length) {
        n = start(r + 1) - start(r)
        if (n > run.length) run = new Array[Long](math.max(n, 2 * run.length))
        System.arraycopy(pairs, start(r), run, 0, n)
        Arrays.sort(run, 0, n)
        k = 0
        r += 1
      }
      k < n
    }

    def next(): Comparison = {
      if (!hasNext) throw new NoSuchElementException("next on an exhausted Comparison List")
      val p = run(k)
      k += 1
      Comparison((p >>> 32).toInt, p.toInt, -negated(r - 1))
    }
  }
}

/** The window scan of the weighted Neighbor List methods (Algorithm 1,
  * Sec. 5.1) over the window sizes `[wLo, wHi]`, shared by LS-PSN (one
  * window size) and GS-PSN (the range `[1, w_max]`): the profiles `ids`
  * (`pc.source1Ids`) cut into the ranges `bounds`, scanned in parallel.
  * Every pair is found in one range only, and the list orders the pairs
  * totally, so the cut does not change the list. Each thread counts in its
  * own `Counts`, made once.
  */
private[core] final class WindowScan(pc: ProfileCollection, nl: NeighborList, view: WindowScan.PartnerView,
    wLo: Int, wHi: Int, ids: Array[Int], bounds: Array[Int]) {
  import WindowScan._

  /** The whole sorted Comparison List: one unbounded band. */
  def comparisons(): ComparisonList = band(Double.NegativeInfinity, Int.MaxValue)._1

  /** The sorted Comparison List read band by band: the first band keeps
    * `keep` pairs a range, and each next one rescans for the weights after
    * the last one read, with `keep` doubled. A band read up to +∞ held every
    * pair left, and ends the stream.
    */
  def bands(keep: Int): Iterator[Comparison] =
    Iterator.unfold((Double.NegativeInfinity, keep)) { case (after, b) =>
      Option.when(after != Double.PositiveInfinity) {
        val (list, last) = band(after, b)
        (list.iterator, (last, math.min(Int.MaxValue.toLong, 2L * b).toInt))
      }
    }.flatten

  /** The band `(after, keep)` of the sorted Comparison List, and T, the last
    * negated weight it holds. Every range keeps its best `keep` negated
    * weights above `after`, ties included, and returns them with τ (see
    * `scan`). T is the smallest τ: every pair at T or better was kept by its
    * range, so the band is exact. The survivors are ranked by negated weight
    * once (the first occurrence of a weight represents it), and grouped once
    * with the ranks past T dropped, so the band stores only what it reads.
    */
  private[core] def band(after: Double, keep: Int): (ComparisonList, Double) = {
    val ranges = ForkJoin.all(bounds.length - 1, () => new Counts(pc.size)) { (counts, q) =>
      scan(bounds(q), bounds(q + 1), after, keep, counts)
    }
    val n = ranges.map(_.n).sum
    val pairs = new Array[Long](n)
    val negated = new Array[Double](n)
    var at = 0
    for (s <- ranges) {
      System.arraycopy(s.pairs, 0, pairs, at, s.n)
      System.arraycopy(s.negated, 0, negated, at, s.n)
      at += s.n
    }
    val last = ranges.foldLeft(Double.PositiveInfinity)((t, s) => math.min(t, s.tau))
    val (ranks, distinct) = RankSort.rank(negated, n)
    val found = Arrays.binarySearch(distinct, last)
    val runs = if (found >= 0) found + 1 else -found - 1 // the distinct weights up to T
    val (order, start) = RankSort.group(ranks, runs)
    val grouped = new Array[Long](order.length)
    var t = 0
    while (t < order.length) { grouped(t) = pairs(order(t)); t += 1 }
    (new ComparisonList(grouped, start, Arrays.copyOf(distinct, runs)), last)
  }

  /** The comparisons of the profiles `ids(from until until)` that survive
    * the band `(after, keep)`, unsorted, and τ.
    *
    * The outer loop runs over all profiles for Dirty ER and only the P1 side
    * for Clean-clean ER (Sec. 5.1.1). For each profile `i` it counts, over
    * both directions from every position `pos` of `i` (Algorithm 1 lines
    * 8–16), how often each neighbor in `view` co-occurs with it: the two
    * slices of `view.ids` at positions `[pos - wHi, pos - wLo]` and
    * `[pos + wLo, pos + wHi]`, clipped to the list. Clean-clean ER thus visits
    * only partners on the other source. Dirty ER visits every entry, `i`
    * itself included, and counts a neighbor only if `j < i`, so every pair
    * is counted from its larger id only.
    *
    * The counts live in the thread's `counts`: one dense array plus the list
    * of neighbors touched, reset after each profile. The counting loop has
    * no data-dependent branch: every step writes its id to the next free
    * slot of `touched` and moves past it only on the first touch of a kept
    * id. Every touched neighbor is weighted with RCF (lines 17–19); the
    * frequencies are summed over `wHi - wLo + 1` window sizes.
    *
    * A pair is kept only if its negated weight is above `after` and at most
    * τ (+∞ at first). At `2·keep` pairs, τ becomes their `keep`-th smallest
    * negated weight and the pairs past τ are dropped; ties at τ stay.
    */
  private def scan(from: Int, until: Int, after: Double, keep: Int, counts: Counts): Survivors = {
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
    var tau = Double.PositiveInfinity
    var fill = 2L * keep // ties kept at τ can hold more: then twice those
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
        val w = -Rcf.weight(count(j), lenI, nl.positionsOf(j).length, windows)
        if (w > after && w <= tau) {
          pairs(n) = if (i < j) i.toLong << 32 | j else j.toLong << 32 | i
          negated(n) = w
          n += 1
        }
        count(j) = 0
        t += 1
      }
      if (n >= fill) {
        tau = select(Arrays.copyOf(negated, n), keep - 1)
        var kept = 0
        t = 0
        while (t < n) {
          if (negated(t) <= tau) { pairs(kept) = pairs(t); negated(kept) = negated(t); kept += 1 }
          t += 1
        }
        n = kept
        fill = math.max(2L * keep, 2L * n)
      }
      x += 1
    }
    new Survivors(pairs, negated, n, tau)
  }
}

private[core] object WindowScan {

  /** Placement-window steps below which a range is not worth a task of its
    * own.
    */
  private val MinWork = 1L << 15

  /** A range's survivors: the first `n` packed pairs and negated weights, and τ. */
  private final class Survivors(val pairs: Array[Long], val negated: Array[Double], val n: Int, val tau: Double)

  /** The scan of windows `[wLo, wHi]` with `pc.source1Ids` cut into ranges
    * of about equal placement-window steps (`ForkJoin.ranges`).
    */
  def apply(pc: ProfileCollection, nl: NeighborList, view: PartnerView, wLo: Int, wHi: Int): WindowScan = {
    val ids = pc.source1Ids.toArray
    new WindowScan(pc, nl, view, wLo, wHi, ids,
      ForkJoin.ranges(ids.length, MinWork)(x => nl.positionsOf(ids(x)).length * (wHi - wLo + 1L)))
  }

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

  /** A dense count per profile and the list of the profiles touched, of
    * one thread. Every count is 0 between two profiles of a scan.
    */
  private final class Counts(size: Int) {
    val count = new Array[Int](size)
    // One slot more than the profiles: a step writes touched(nt) before it
    // knows whether its id is new, and nt reaches |P| when every id is.
    val touched = new Array[Int](size + 1)
  }

  /** The `k`-th smallest of the finite `xs` (from 0), reordering `xs`:
    * Hoare's selection, which splits runs of equal values evenly.
    */
  private def select(xs: Array[Double], k: Int): Double = {
    var lo = 0
    var hi = xs.length - 1
    while (lo < hi) {
      val pivot = xs((lo + hi) >>> 1)
      var a = lo
      var b = hi
      while (a <= b) {
        while (xs(a) < pivot) a += 1
        while (xs(b) > pivot) b -= 1
        if (a <= b) { val s = xs(a); xs(a) = xs(b); xs(b) = s; a += 1; b -= 1 }
      }
      if (k <= b) hi = b else if (k >= a) lo = a else return xs(k)
    }
    xs(k)
  }

  /** Counts every id below `limit` of `ids(from until until)` in `count`,
    * and lists the ids touched for the first time in `touched` from slot
    * `nt` on; returns the new number of touched ids. Each step writes its id
    * to slot `nt` and moves past it only on the first touch of a kept id,
    * with no branch.
    */
  private def tally(ids: Array[Int], from: Int, until: Int, limit: Int, count: Array[Int], touched: Array[Int],
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

  /** The sorted Comparison List of one window size (Algorithm 1 for w): one unbounded band. */
  def windowComparisons(w: Int): ComparisonList = WindowScan(pc, nl, view, w, w).comparisons()

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
  * comparisons bounds the usable window range to ~`c / |NL|`. That budget
  * only emulates the paper: the stream never holds the list. It reads the
  * list in bands (`WindowScan.bands`), the first keeping |P| pairs a scan
  * range, so its peak is the largest band read: about ranges × 2B × 16
  * bytes while a band of B pairs a range is scanned, as much again to join
  * the survivors and 16 bytes a survivor to rank and group them; the band
  * keeps only the pairs it reads, at 8 bytes a pair. `globalComparisons()`
  * holds the whole packed list, 8 bytes a stored comparison.
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
  def globalComparisons(): ComparisonList = scan.comparisons()

  /** The global list read band by band, the first keeping |P| pairs a range. */
  def emissions: Iterator[Comparison] = emissions(math.max(1, pc.size))

  private[core] def emissions(keep: Int): Iterator[Comparison] = scan.bands(keep)

  private def scan = WindowScan(pc, nl, WindowScan.PartnerView(pc, nl), 1, effectiveWMax)
}
