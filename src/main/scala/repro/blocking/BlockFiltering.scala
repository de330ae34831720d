package repro.blocking

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
    // the blocks of profile p, smallest first:
    // blocksOf(start(p) until start(p + 1)), as compressed sparse rows
    val start = new Array[Int](pc.size + 1)
    for (b <- bc.blocks; p <- b.profiles) start(p + 1) += 1
    for (p <- 0 until pc.size) start(p + 1) += start(p)
    val next = java.util.Arrays.copyOf(start, pc.size)
    val blocksOf = new Array[Int](start(pc.size))
    for (bi <- order; p <- bc.blocks(bi).profiles) { blocksOf(next(p)) = bi; next(p) += 1 }
    // each profile keeps the head of its list; fill the blocks in ascending
    // profile id
    val keep = Array.tabulate(pc.size)(p => keepCount(start(p + 1) - start(p), ratio))
    val kept = new Array[Int](bc.blocks.size)
    for (p <- 0 until pc.size; x <- start(p) until start(p) + keep(p)) kept(blocksOf(x)) += 1
    val retained = kept.map(new Array[Int](_))
    java.util.Arrays.fill(kept, 0)
    for (p <- 0 until pc.size; x <- start(p) until start(p) + keep(p)) {
      val bi = blocksOf(x)
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
