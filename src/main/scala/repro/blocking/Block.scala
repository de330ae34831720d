package repro.blocking

import repro.core.{CleanCleanEr, DirtyEr, ErType, ProfileCollection, RankSort}

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

  /** Every profile's block list: the indices of the `blocks` (each an array
    * of profile ids below `nProfiles`) that hold it, in the order the
    * blocks are given. The lists are counted, then filled block by block.
    */
  def blockLists(blocks: Array[Array[Int]], nProfiles: Int): Array[Array[Int]] = {
    val count = new Array[Int](nProfiles)
    var k = 0
    while (k < blocks.length) {
      val ids = blocks(k)
      var x = 0
      while (x < ids.length) { count(ids(x)) += 1; x += 1 }
      k += 1
    }
    val lists = new Array[Array[Int]](nProfiles)
    var p = 0
    while (p < nProfiles) { lists(p) = new Array[Int](count(p)); count(p) = 0; p += 1 }
    k = 0
    while (k < blocks.length) {
      val ids = blocks(k)
      var x = 0
      while (x < ids.length) {
        p = ids(x)
        lists(p)(count(p)) = k
        count(p) += 1
        x += 1
      }
      k += 1
    }
    lists
  }

  /** ||b|| of the block holding the first `n` ids of `profiles`. */
  def cardinality(pc: ProfileCollection, profiles: Array[Int], n: Int): Long = {
    var n1, k = 0
    if (pc.erType == CleanCleanEr) while (k < n) { if (pc.source(profiles(k)) == 1) n1 += 1; k += 1 }
    cardinality(pc.erType, n, n1)
  }

  /** ||b|| of a block of `size` profiles, `n1` of them from source 1: the one
    * cardinality definition, shared by every block type and the Spark stages.
    */
  def cardinality(erType: ErType, size: Long, n1: Long): Long = erType match {
    case DirtyEr      => size * (size - 1) / 2
    case CleanCleanEr => n1 * (size - n1)
  }
}

/** An ordered block collection B with aggregate statistics (Sec. 3).
  *
  * The blocks are in ascending key order, keys distinct: the block builder
  * (`TokenIndex.blocks`) emits them so, and Block Purging and Block
  * Filtering only drop blocks or members, which keeps it. A block's index is
  * therefore its rank by key.
  */
final case class BlockCollection(blocks: Vector[Block], pc: ProfileCollection) {

  /** |B| — number of blocks. */
  def size: Int = blocks.size

  /** ||B|| — aggregate cardinality (total comparisons, repeats included). */
  def aggregateCardinality: Long = blocks.iterator.map(_.cardinality(pc)).sum

  /** Block indices in non-decreasing (cardinality, key) — the smallest-first
    * order of Block Filtering, of the Profile Index and of every SA-PSAB
    * layer — and every block's cardinality, by index. The block indices are
    * grouped by cardinality rank, ascending within a rank: since the blocks
    * are in key order, the index is the key tie-break.
    */
  def cardinalityOrder: (Array[Int], Array[Long]) = {
    val cards = new Array[Long](blocks.size)
    val it = blocks.iterator
    var k = 0
    while (it.hasNext) { cards(k) = it.next().cardinality(pc); k += 1 }
    val (rank, nRanks) = RankSort.rank(cards)
    (RankSort.group(rank, nRanks)._1, cards)
  }
}
