package repro.blocking

import repro.core.ProfileCollection

/** The Profile Index of PBS/PPS (Sec. 5.2.1): an inverted index from profile
  * id to the ids of the blocks containing it.
  *
  * Block ids are the positions of the blocks after sorting the collection in
  * non-decreasing cardinality (the PBS processing order), and each profile's
  * block-id array is ascending — which makes both Profile Index operations
  * (the LeCoBI condition and Edge Weighting) a linear merge of two sorted
  * lists, exactly as the paper describes.
  */
final class ProfileIndex private (
    val orderedBlocks: Vector[Block],
    val cardinalities: Array[Long],
    private val blockIds: Array[Array[Int]]) {

  /** Ascending block ids of profile `i` (B_i). Empty if unindexed. */
  def blocksOf(i: Int): Array[Int] = blockIds(i)

  /** Least Common Block Index: the smallest block id shared by `i` and `j`,
    * or -1 when they share no block. A comparison met in block `y` is new iff
    * `lecobi(i, j) == y` (Sec. 5.2.1).
    */
  def lecobi(i: Int, j: Int): Int = {
    val a = blockIds(i); val b = blockIds(j)
    var x = 0; var y = 0
    while (x < a.length && y < b.length) {
      if (a(x) == b(y)) return a(x)
      else if (a(x) < b(y)) x += 1
      else y += 1
    }
    -1
  }

  /** Number of blocks shared by `i` and `j` (linear merge). */
  def commonBlockCount(i: Int, j: Int): Int = {
    val a = blockIds(i); val b = blockIds(j)
    var x = 0; var y = 0; var n = 0
    while (x < a.length && y < b.length) {
      if (a(x) == b(y)) { n += 1; x += 1; y += 1 }
      else if (a(x) < b(y)) x += 1
      else y += 1
    }
    n
  }

  /** Σ f(||b||) over the blocks shared by `i` and `j` — the merge that powers
    * every co-occurrence weighting scheme.
    */
  def sumOverCommonBlocks(i: Int, j: Int)(f: Long => Double): Double = {
    val a = blockIds(i); val b = blockIds(j)
    var x = 0; var y = 0; var s = 0.0
    while (x < a.length && y < b.length) {
      if (a(x) == b(y)) { s += f(cardinalities(a(x))); x += 1; y += 1 }
      else if (a(x) < b(y)) x += 1
      else y += 1
    }
    s
  }
}

object ProfileIndex {

  /** Sort blocks in non-decreasing cardinality (ties broken by key, so the
    * processing order is deterministic) and build the index.
    */
  def build(bc: BlockCollection): ProfileIndex = {
    val pc: ProfileCollection = bc.pc
    val (order, cards) = bc.cardinalityOrder
    val ordered = order.iterator.map(bc.blocks).toVector
    val count = new Array[Int](pc.size)
    for (b <- ordered; p <- b.profiles) count(p) += 1
    val ids = count.map(new Array[Int](_))
    java.util.Arrays.fill(count, 0)
    // filled in ascending block id, so every profile's array is sorted
    for (bi <- ordered.indices; p <- ordered(bi).profiles) { ids(p)(count(p)) = bi; count(p) += 1 }
    new ProfileIndex(ordered, order.map(cards), ids)
  }
}
