package repro.core

import scala.collection.immutable

/** A sorted Comparison List of LS-PSN / GS-PSN, stored as two primitive
  * arrays: the canonical pairs packed as `i << 32 | j` and their weights,
  * 16 bytes a stored comparison (against ~40 for a boxed `Comparison` and
  * its reference). A `Comparison` is built only when an element is read.
  *
  * The order is `Comparison.byDescendingWeight`: descending weight in
  * `java.lang.Double.compare` order, then ascending (i, j).
  */
final class ComparisonList private (pairs: Array[Long], weights: Array[Double])
    extends immutable.IndexedSeq[Comparison] {

  def length: Int = pairs.length

  def apply(k: Int): Comparison = {
    val p = pairs(k)
    Comparison((p >>> 32).toInt, p.toInt, weights(k))
  }
}

object ComparisonList {

  /** Sort the first `n` (packed pair, weight) entries; pairs must be
    * distinct. Overwrites `weights`.
    */
  private[core] def sorted(pairs: Array[Long], weights: Array[Double], n: Int): ComparisonList = {
    // Descending weight is ascending negated weight; -(-w) restores w bit
    // for bit.
    var k = 0
    while (k < n) { weights(k) = -weights(k); k += 1 }
    val (rank, distinct) = RankSort.rank(weights, n)
    val (sortedPairs, start) = RankSort.sort(rank, distinct.length, pairs)
    val sortedWeights = new Array[Double](n)
    var r = 0
    while (r < distinct.length) {
      java.util.Arrays.fill(sortedWeights, start(r), start(r + 1), -distinct(r))
      r += 1
    }
    new ComparisonList(sortedPairs, sortedWeights)
  }
}

/** The window scan of the weighted Neighbor List methods (Algorithm 1,
  * Sec. 5.1), shared by LS-PSN (one window size) and GS-PSN (the range
  * `[1, w_max]`).
  */
private[core] object WindowScan {

  /** The sorted Comparison List of the window sizes `[wLo, wHi]`.
    *
    * The outer loop runs over all profiles for Dirty ER and only the P1 side
    * for Clean-clean ER (Sec. 5.1.1). For each profile `i` it counts, over
    * both directions from every position of `i` (Algorithm 1 lines 8–16),
    * how often each valid neighbor co-occurs with it — Dirty ER: `j < i`,
    * so every pair is counted from its larger id only; Clean-clean ER: `j`
    * on the other source. The counts live in one dense array plus the list
    * of neighbors touched, reset after each profile. Every counted neighbor
    * is weighted with the scheme (lines 17–19); the frequencies are summed
    * over `wHi - wLo + 1` window sizes.
    */
  def comparisons(
      pc: ProfileCollection,
      nl: NeighborList,
      scheme: NlWeighting,
      wLo: Int,
      wHi: Int): ComparisonList = {
    val windows = wHi - wLo + 1
    val dirty = pc.erType == DirtyEr
    val entries = nl.entries
    val count = new Array[Int](pc.size)
    val touched = new Array[Int](pc.size)
    // At most one pair per (position, window size).
    val bound = math.min(Int.MaxValue - 8L, nl.size.toLong * windows).toInt
    var pairs = new Array[Long](math.min(bound, math.max(16, nl.size)))
    var weights = new Array[Double](pairs.length)
    var n = 0
    for (i <- pc.source1Ids) {
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
        pairs = java.util.Arrays.copyOf(pairs, cap)
        weights = java.util.Arrays.copyOf(weights, cap)
      }
      val lenI = positions.length
      var t = 0
      while (t < nt) {
        val j = touched(t)
        pairs(n) = if (i < j) i.toLong << 32 | j else j.toLong << 32 | i
        weights(n) = scheme.weight(count(j), lenI, nl.positionsOf(j).length, windows)
        count(j) = 0
        n += 1
        t += 1
      }
    }
    ComparisonList.sorted(pairs, weights, n)
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
final class LSPSN(
    pc: ProfileCollection,
    nl: NeighborList,
    scheme: NlWeighting = Rcf) extends ProgressiveMethod {
  val name = "LS-PSN"

  /** The sorted Comparison List of one window size (Algorithm 1 for w). */
  def windowComparisons(w: Int): ComparisonList = WindowScan.comparisons(pc, nl, scheme, w, w)

  def emissions: Iterator[Comparison] =
    Iterator.from(1).takeWhile(_ < nl.size).flatMap(w => windowComparisons(w).iterator)
}

/** Global Schema-Agnostic PSN (Sec. 5.1.2).
  *
  * Same machinery as LS-PSN, but the co-occurrence frequencies are
  * accumulated over *all* window sizes in `[1, w_max]` before weighting, and
  * the resulting Comparison List is sorted once, globally. Each pair is
  * emitted at most once; the stream ends when the list is exhausted.
  *
  * `maxComparisons` reproduces the paper's footnote 9: on freebase, GS-PSN's
  * Comparison List had to be limited to the available memory (80 GB), which
  * truncated its window range and capped its final recall below 20 %. Since
  * every window contributes up to |NL| comparisons, a budget of `c` stored
  * comparisons bounds the usable window range to ~`c / |NL|`. The list is a
  * packed `ComparisonList`, 16 bytes a stored comparison, so `c` stored
  * comparisons take ~16·`c` bytes of heap.
  */
final class GSPSN(
    pc: ProfileCollection,
    nl: NeighborList,
    wMax: Int,
    scheme: NlWeighting = Rcf,
    maxComparisons: Long = Long.MaxValue) extends ProgressiveMethod {
  val name = "GS-PSN"

  /** The window range that fits the comparison budget. */
  def effectiveWMax: Int =
    math.min(wMax.toLong, math.max(1L, maxComparisons / math.max(1, nl.size))).toInt

  /** The single, global Comparison List over windows `[1, effectiveWMax]`. */
  def globalComparisons(): ComparisonList = WindowScan.comparisons(pc, nl, scheme, 1, effectiveWMax)

  def emissions: Iterator[Comparison] = globalComparisons().iterator
}
