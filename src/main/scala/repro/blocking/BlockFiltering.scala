package repro.blocking

import repro.core.RankSort

/** Block Filtering (step 3 of the Token Blocking Workflow, Sec. 7): retain
  * every profile only in its `ratio` (paper: 80 %) smallest — i.e. most
  * distinctive — blocks, then drop blocks left without any executable
  * comparison.
  */
object BlockFiltering {

  /** How many of its `n` blocks a profile keeps: ⌈ratio·n⌉, at least one. */
  def keepCount(n: Int, ratio: Double): Int = if (n == 0) 0 else math.max(1, math.ceil(ratio * n).toInt)

  def filter(bc: BlockCollection, ratio: Double = 0.8): BlockCollection = {
    val pc = bc.pc
    val (order, _) = bc.cardinalityOrder
    // every membership (block blockOf(m), profile profileOf(m)), the blocks
    // smallest first; the blocks of profile p, smallest first, are the
    // blockOf(byProfile(x)) for x in start(p) until start(p + 1)
    val blockOf, profileOf = new Array[Int](bc.blocks.iterator.map(_.size).sum)
    var m = 0
    for (bi <- order; p <- bc.blocks(bi).profiles) { blockOf(m) = bi; profileOf(m) = p; m += 1 }
    val (byProfile, start) = RankSort.group(profileOf, pc.size)
    // each profile keeps the head of its list; fill the blocks in ascending
    // profile id
    val keep = Array.tabulate(pc.size)(p => keepCount(start(p + 1) - start(p), ratio))
    val kept = new Array[Int](bc.blocks.size)
    for (p <- 0 until pc.size; x <- start(p) until start(p) + keep(p)) kept(blockOf(byProfile(x))) += 1
    val retained = kept.map(new Array[Int](_))
    java.util.Arrays.fill(kept, 0)
    for (p <- 0 until pc.size; x <- start(p) until start(p) + keep(p)) {
      val bi = blockOf(byProfile(x))
      retained(bi)(kept(bi)) = p
      kept(bi) += 1
    }
    val blocks = bc.blocks.indices
      .map(bi => Block(bc.blocks(bi).key, retained(bi)))
      .filter(_.cardinality(pc) > 0)
      .toVector
    bc.copy(blocks = blocks)
  }
}
