package repro.core

import java.util.Arrays

/** The one sort behind the Neighbor List, the LS-PSN / GS-PSN Comparison
  * Lists, the PPS Sorted Profile List and the cardinality order of blocks:
  * primitive keys only, no comparator, and a total order, so the result is
  * fully determined by the input.
  *
  * Each element has a primary key, ranked densely through a sorted
  * dictionary of its distinct values, and a unique `Long` payload that
  * breaks ties. The elements are counting-sorted by rank, then every rank's
  * run of payloads is sorted ascending: the order (rank, payload).
  */
private[repro] object RankSort {

  /** Sort the first `rank.length` elements.
    *
    * @return the payloads in (rank, payload) order, and the start of every
    *         rank's run (`start(r) until start(r + 1)`; length `nRanks + 1`)
    */
  def sort(rank: Array[Int], nRanks: Int, payload: Array[Long]): (Array[Long], Array[Int]) = {
    val start = new Array[Int](nRanks + 1)
    var k = 0
    while (k < rank.length) { start(rank(k) + 1) += 1; k += 1 }
    var r = 0
    while (r < nRanks) { start(r + 1) += start(r); r += 1 }
    val next = Arrays.copyOf(start, nRanks)
    val out = new Array[Long](rank.length)
    k = 0
    while (k < rank.length) {
      val rk = rank(k)
      out(next(rk)) = payload(k)
      next(rk) += 1
      k += 1
    }
    r = 0
    while (r < nRanks) {
      if (start(r + 1) - start(r) > 1) Arrays.sort(out, start(r), start(r + 1))
      r += 1
    }
    (out, start)
  }

  /** Rank the first `n` doubles in `java.lang.Double.compare` order (the
    * order `Arrays.sort` and `Arrays.binarySearch` use: -0.0 before 0.0,
    * every NaN equal and last).
    *
    * @return each value's rank and the distinct values, ascending
    */
  def rank(xs: Array[Double], n: Int): (Array[Int], Array[Double]) = {
    val dictionary = new Dictionary
    val ranks = new Array[Int](n)
    var k = 0
    while (k < n) { ranks(k) = dictionary.id(xs(k)); k += 1 }
    val (rankOfId, distinct) = dictionary.ranked()
    k = 0
    while (k < n) { ranks(k) = rankOfId(ranks(k)); k += 1 }
    (ranks, distinct)
  }

  /** Rank the longs `xs` densely in ascending order.
    *
    * @return each value's rank and the number of distinct values
    */
  def rank(xs: Array[Long]): (Array[Int], Int) = {
    val distinct = xs.clone()
    Arrays.sort(distinct)
    var d = 0
    var k = 0
    while (k < distinct.length) {
      if (d == 0 || distinct(d - 1) != distinct(k)) { distinct(d) = distinct(k); d += 1 }
      k += 1
    }
    val ranks = new Array[Int](xs.length)
    k = 0
    while (k < xs.length) { ranks(k) = Arrays.binarySearch(distinct, 0, d, xs(k)); k += 1 }
    (ranks, d)
  }

  /** The distinct doubles seen so far, each with a dense id in first-seen
    * order: an open-addressing hash table keyed on `doubleToLongBits`. Two
    * doubles have equal `doubleToLongBits` exactly when `Double.compare`
    * calls them equal (every NaN one key, -0.0 and 0.0 two), so only the
    * distinct values need sorting to rank them. A value's first occurrence
    * represents its key.
    */
  final class Dictionary {
    private var keys = new Array[Long](16)
    private var slots = new Array[Int](16) // id + 1; 0 marks an empty slot
    private var distinct = new Array[Double](8)
    private var d = 0

    /** The number of distinct values. */
    def size: Int = d

    /** The representative of id `k`. */
    def value(k: Int): Double = distinct(k)

    /** The id of `x`, added if it is new. */
    def id(x: Double): Int = {
      val key = java.lang.Double.doubleToLongBits(x)
      val mask = keys.length - 1
      var s = slot(key, mask)
      while (slots(s) != 0 && keys(s) != key) s = (s + 1) & mask
      if (slots(s) != 0) slots(s) - 1
      else {
        if (d == distinct.length) distinct = Arrays.copyOf(distinct, 2 * d)
        distinct(d) = x
        d += 1
        keys(s) = key
        slots(s) = d
        if (2 * d > keys.length) grow()
        d - 1
      }
    }

    /** Every id's rank in ascending `Double.compare` order, and the
      * distinct values in that order.
      */
    def ranked(): (Array[Int], Array[Double]) = {
      val sorted = Arrays.copyOf(distinct, d)
      Arrays.sort(sorted)
      val rankOfId = new Array[Int](d)
      var r = 0
      while (r < d) { rankOfId(id(sorted(r))) = r; r += 1 }
      (rankOfId, sorted)
    }

    private def slot(key: Long, mask: Int): Int = {
      val h = key * 0x9E3779B97F4A7C15L
      (h ^ (h >>> 32)).toInt & mask
    }

    private def grow(): Unit = {
      val oldKeys = keys
      val oldSlots = slots
      keys = new Array[Long](2 * oldKeys.length)
      slots = new Array[Int](keys.length)
      val mask = keys.length - 1
      var t = 0
      while (t < oldKeys.length) {
        if (oldSlots(t) != 0) {
          var s = slot(oldKeys(t), mask)
          while (slots(s) != 0) s = (s + 1) & mask
          keys(s) = oldKeys(t)
          slots(s) = oldSlots(t)
        }
        t += 1
      }
    }
  }
}
