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
    val blocks = bc.blocks.toArray
    val (order, _) = bc.cardinalityOrder
    // every membership (block blockOf(m), profile profileOf(m)), the blocks
    // smallest first; the blocks of profile p, smallest first, are the
    // blockOf(byProfile(x)) for x in start(p) until start(p + 1)
    var memberships = 0
    var b = 0
    while (b < blocks.length) { memberships += blocks(b).size; b += 1 }
    val blockOf, profileOf = new Array[Int](memberships)
    var m = 0
    var o = 0
    while (o < order.length) {
      val ids = blocks(order(o)).profiles
      var x = 0
      while (x < ids.length) { blockOf(m) = order(o); profileOf(m) = ids(x); m += 1; x += 1 }
      o += 1
    }
    val (byProfile, start) = RankSort.group(profileOf, pc.size)
    // each profile keeps the head of its list, the memberships up to
    // keptUntil(p); the blocks are filled in ascending profile id
    val keptUntil = new Array[Int](pc.size)
    val kept = new Array[Int](blocks.length)
    var p = 0
    while (p < pc.size) {
      keptUntil(p) = start(p) + keepCount(start(p + 1) - start(p), ratio)
      var x = start(p)
      while (x < keptUntil(p)) { kept(blockOf(byProfile(x))) += 1; x += 1 }
      p += 1
    }
    val retained = new Array[Array[Int]](blocks.length)
    b = 0
    while (b < blocks.length) { retained(b) = new Array[Int](kept(b)); kept(b) = 0; b += 1 }
    p = 0
    while (p < pc.size) {
      var x = start(p)
      while (x < keptUntil(p)) {
        val bi = blockOf(byProfile(x))
        retained(bi)(kept(bi)) = p
        kept(bi) += 1
        x += 1
      }
      p += 1
    }
    val filtered = Vector.newBuilder[Block]
    b = 0
    while (b < blocks.length) {
      if (Block.cardinality(pc, retained(b), retained(b).length) > 0) filtered += Block(blocks(b).key, retained(b))
      b += 1
    }
    bc.copy(blocks = filtered.result())
  }
}
