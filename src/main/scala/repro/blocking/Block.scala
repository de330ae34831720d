package repro.blocking

import repro.core.{CleanCleanEr, DirtyEr, ProfileCollection}

/** A block: the set of profiles indexed under one blocking key.
  *
  * @param key      the blocking key (an attribute value token for Token
  *                 Blocking, a suffix for SA-PSAB)
  * @param profiles ascending, distinct profile ids
  */
final case class Block(key: String, profiles: Array[Int]) {

  /** |b| — number of profiles in the block. */
  def size: Int = profiles.length

  /** ||b|| — number of comparisons the block yields under the collection's ER
    * type: n(n-1)/2 for Dirty ER, |b∩P1|·|b∩P2| for Clean-clean ER (Sec. 3).
    */
  def cardinality(pc: ProfileCollection): Long = Block.cardinality(pc, profiles, size)

  /** The valid comparisons of the block, in deterministic (i, j) order. */
  def pairs(pc: ProfileCollection): Iterator[(Int, Int)] = Block.pairs(pc, profiles)
}

object Block {

  /** The valid comparisons among the ascending ids `ids`, in (i, j) order:
    * the one pair enumerator of every block type.
    */
  def pairs(pc: ProfileCollection, ids: Array[Int]): Iterator[(Int, Int)] =
    Iterator.range(0, ids.length).flatMap { x =>
      Iterator.range(x + 1, ids.length).collect {
        case y if pc.validPair(ids(x), ids(y)) => (ids(x), ids(y))
      }
    }

  /** ||b|| of the block holding the first `n` ids of `profiles`: the one
    * cardinality definition, shared by every block type.
    */
  def cardinality(pc: ProfileCollection, profiles: Array[Int], n: Int): Long = pc.erType match {
    case DirtyEr =>
      n.toLong * (n - 1) / 2
    case CleanCleanEr =>
      var n1 = 0L
      var k = 0
      while (k < n) { if (pc.source(profiles(k)) == 1) n1 += 1; k += 1 }
      n1 * (n - n1)
  }
}

/** An ordered block collection B with aggregate statistics (Sec. 3). */
final case class BlockCollection(blocks: Vector[Block], pc: ProfileCollection) {

  /** |B| — number of blocks. */
  def size: Int = blocks.size

  /** ||B|| — aggregate cardinality (total comparisons, repeats included). */
  def aggregateCardinality: Long = blocks.iterator.map(_.cardinality(pc)).sum

  /** Mean block size |b̄|. */
  def meanBlockSize: Double =
    if (blocks.isEmpty) 0.0 else blocks.iterator.map(_.size.toLong).sum.toDouble / blocks.size

  /** Block indices in non-decreasing (cardinality, key), ties in index order
    * — the smallest-first order of Block Filtering and of the Profile Index —
    * and every block's cardinality, by index.
    */
  def cardinalityOrder: (Array[Int], Array[Long]) = {
    val cards = new Array[Long](blocks.size)
    for (k <- cards.indices) cards(k) = blocks(k).cardinality(pc)
    val order = Array.range(0, blocks.size).sorted(new Ordering[Int] {
      def compare(a: Int, b: Int): Int = {
        val c = java.lang.Long.compare(cards(a), cards(b))
        if (c != 0) c else blocks(a).key.compareTo(blocks(b).key)
      }
    })
    (order, cards)
  }
}
