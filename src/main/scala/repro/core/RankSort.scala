package repro.core

import java.util.Arrays

/** The one sequential counting sort, and the dense ranks it groups by.
  *
  * `group` groups elements under primitive keys, stably: no comparator, so
  * the result is fully determined by the input. It groups the Neighbor
  * List and its Position Index, the blocks of `TokenIndex.blocks`, the
  * cardinality order of blocks, the pairs of every Comparison List band by
  * weight (`ComparisonList.apply`) and the descending order of PBS's and
  * PPS's comparisons and of the PPS Sorted Profile List (`descending`).
  * Per-profile block lists do not go through it: `Block.blockLists` fills
  * them directly. A key that orders by a `Double` or a `Long` is ranked
  * densely first (`rank`), and distinct strings are ordered on packed
  * prefixes of their units (`strings`): the Neighbor List's keys and the
  * blocks' keys.
  */
private[repro] object RankSort {

  /** Group the elements by key, a stable counting sort: the indices of the
    * elements with a key in `0 until nKeys`, ascending within a key; an
    * element whose key is outside `0 until nKeys` is dropped.
    *
    * @return the grouped indices, and the start of every key's run
    *         (`start(k) until start(k + 1)`; length `nKeys + 1`)
    */
  def group(keys: Array[Int], nKeys: Int): (Array[Int], Array[Int]) = {
    val start = new Array[Int](nKeys + 1)
    var x = 0
    while (x < keys.length) { if (keys(x) >= 0 && keys(x) < nKeys) start(keys(x) + 1) += 1; x += 1 }
    var k = 0
    while (k < nKeys) { start(k + 1) += start(k); k += 1 }
    val next = Arrays.copyOf(start, nKeys)
    val out = new Array[Int](start(nKeys))
    x = 0
    while (x < keys.length) {
      val key = keys(x)
      if (key >= 0 && key < nKeys) { out(next(key)) = x; next(key) += 1 }
      x += 1
    }
    (out, start)
  }

  /** The indices of the first `n` weights, by descending weight — ascending
    * negated weight in `java.lang.Double.compare` order, so every NaN comes
    * last and 0.0 before -0.0 — and ascending within a weight: for
    * comparisons listed in ascending (i, j), the descending-weight order
    * with (i, j) tie-break that the weighted methods emit in.
    */
  def descending(weights: Array[Double], n: Int): Array[Int] = {
    if (n <= 1) return Array.range(0, n)
    val negated = new Array[Double](n)
    var k = 0
    while (k < n) { negated(k) = -weights(k); k += 1 }
    val (ranks, distinct) = rank(negated, n)
    group(ranks, distinct.length)._1
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

  /** The indices of the distinct `strings`, in `String.compareTo` order.
    *
    * Every UTF-16 unit present gets a code, its rank among the units
    * present + 1 (0 ends a string), so a string's leading units, as codes,
    * pack into one `long` above its index, and the longs are sorted by
    * them: `Arrays.sort(long[])`, or a radix sort on the packed units from
    * `RadixMin` strings up. Strings that share the packed units form a run;
    * each run is sorted again on its next units, until every run holds one
    * string.
    * Strings that share the packed units are at least that long, since
    * distinct strings differ in a unit or in length.
    */
  def strings(strings: Array[String]): Array[Int] = {
    val n = strings.length
    if (n <= 1) return Array.range(0, n)
    val present = new Array[Long](1024) // a bit per UTF-16 unit
    var k = 0
    while (k < n) {
      val s = strings(k)
      var i = 0
      while (i < s.length) { present(s.charAt(i) >>> 6) |= 1L << s.charAt(i); i += 1 }
      k += 1
    }
    val below = new Array[Int](1024) // the units present in the words before
    var w = 1
    while (w < 1024) { below(w) = below(w - 1) + java.lang.Long.bitCount(present(w - 1)); w += 1 }
    val units = below(1023) + java.lang.Long.bitCount(present(1023))
    val unitBits = 32 - Integer.numberOfLeadingZeros(units)
    val indexBits = 32 - Integer.numberOfLeadingZeros(n - 1)
    val perWord = (63 - indexBits) / unitBits
    val indexMask = (1L << indexBits) - 1

    val order = Array.range(0, n)
    val packed = new Array[Long](n)
    // the runs left to sort: (from, until, the offset of their next units)
    var runs = new Array[Int](96)
    runs(0) = 0; runs(1) = n; runs(2) = 0
    var top = 3
    while (top > 0) {
      top -= 3
      val from = runs(top)
      val until = runs(top + 1)
      val offset = runs(top + 2)
      var x = from
      while (x < until) {
        val s = strings(order(x))
        var key = 0L
        var i = offset
        while (i < offset + perWord) {
          val code =
            if (i >= s.length) 0L
            else {
              val c = s.charAt(i)
              below(c >>> 6) + java.lang.Long.bitCount(present(c >>> 6) & ((1L << c) - 1)) + 1L
            }
          key = key << unitBits | code
          i += 1
        }
        packed(x) = key << indexBits | order(x)
        x += 1
      }
      if (until - from < RadixMin) Arrays.sort(packed, from, until)
      else radixSort(packed, from, until, indexBits, indexBits + perWord * unitBits)
      x = from
      while (x < until) {
        order(x) = (packed(x) & indexMask).toInt
        var y = x + 1
        while (y < until && (packed(y) >>> indexBits) == (packed(x) >>> indexBits)) {
          order(y) = (packed(y) & indexMask).toInt
          y += 1
        }
        if (y - x > 1) {
          if (top == runs.length) runs = Arrays.copyOf(runs, 2 * top)
          runs(top) = x; runs(top + 1) = y; runs(top + 2) = offset + perWord
          top += 3
        }
        x = y
      }
    }
    order
  }

  /** Runs below which `strings` sorts with `Arrays.sort`, not `radixSort`. */
  private val RadixMin = 2048

  /** Sort `a(from until until)` stably by the bits `[low, high)` of each
    * value: least significant digit first, 11 bits a pass.
    */
  private def radixSort(a: Array[Long], from: Int, until: Int, low: Int, high: Int): Unit = {
    var src = Arrays.copyOfRange(a, from, until)
    var dst = new Array[Long](src.length)
    val start = new Array[Int](2049)
    var shift = low
    while (shift < high) {
      Arrays.fill(start, 0)
      var x = 0
      while (x < src.length) { start((src(x) >>> shift & 2047).toInt + 1) += 1; x += 1 }
      var d = 0
      while (d < 2048) { start(d + 1) += start(d); d += 1 }
      x = 0
      while (x < src.length) {
        val digit = (src(x) >>> shift & 2047).toInt
        dst(start(digit)) = src(x)
        start(digit) += 1
        x += 1
      }
      val sorted = dst
      dst = src
      src = sorted
      shift += 11
    }
    System.arraycopy(src, 0, a, from, src.length)
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
  private final class Dictionary {
    private var keys = new Array[Long](16)
    private var slots = new Array[Int](16) // id + 1; 0 marks an empty slot
    private var distinct = new Array[Double](8)
    private var d = 0

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
