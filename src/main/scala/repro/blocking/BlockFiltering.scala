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
    val blocks = bc.blocks.toArray
    val (order, _) = bc.cardinalityOrder
    val smallestFirst = new Array[Array[Int]](order.length)
    var o = 0
    while (o < order.length) { smallestFirst(o) = blocks(order(o)).profiles; o += 1 }
    // the blocks of profile p, smallest first, are the order(lists(p)(x));
    // each profile keeps the head of its list, and the blocks are filled in
    // ascending profile id
    val lists = Block.blockLists(smallestFirst, pc.size)
    val kept = new Array[Int](blocks.length)
    var p = 0
    while (p < pc.size) {
      val n = keepCount(lists(p).length, ratio)
      var x = 0
      while (x < n) { kept(order(lists(p)(x))) += 1; x += 1 }
      p += 1
    }
    val retained = new Array[Array[Int]](blocks.length)
    var b = 0
    while (b < blocks.length) { retained(b) = new Array[Int](kept(b)); kept(b) = 0; b += 1 }
    p = 0
    while (p < pc.size) {
      val n = keepCount(lists(p).length, ratio)
      var x = 0
      while (x < n) {
        b = order(lists(p)(x))
        retained(b)(kept(b)) = p
        kept(b) += 1
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
