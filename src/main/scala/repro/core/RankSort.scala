package repro.core

import java.util.Arrays

/** The one sort behind the Neighbor List, the LS-PSN / GS-PSN Comparison
  * Lists and the PPS Sorted Profile List: primitive keys only, no comparator,
  * and a total order, so the result is fully determined by the input.
  *
  * Each element has a primary key, ranked densely through a sorted
  * dictionary of its distinct values, and a unique `Long` payload that
  * breaks ties. The elements are counting-sorted by rank, then every rank's
  * run of payloads is sorted ascending: the order (rank, payload).
  */
private[core] object RankSort {

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
    val distinct = Arrays.copyOf(xs, n)
    Arrays.parallelSort(distinct)
    var d = 0
    var k = 0
    while (k < n) {
      if (d == 0 || java.lang.Double.compare(distinct(d - 1), distinct(k)) != 0) {
        distinct(d) = distinct(k)
        d += 1
      }
      k += 1
    }
    val ranks = new Array[Int](n)
    k = 0
    while (k < n) { ranks(k) = Arrays.binarySearch(distinct, 0, d, xs(k)); k += 1 }
    (ranks, Arrays.copyOf(distinct, d))
  }
}
