package repro.blocking

/** The Profile Index of PBS/PPS (Sec. 5.2.1): an inverted index from profile
  * id to the ids of the blocks containing it.
  *
  * Block ids are the positions of the blocks after sorting the collection in
  * non-decreasing cardinality (the PBS processing order), and each profile's
  * block-id array is ascending. So both Profile Index operations of PBS, the
  * LeCoBI condition and the ARCS edge weight, come from one linear merge of
  * two sorted lists (`arcsIfLeast`); PPS reads the blocks of one profile at a
  * time (`BlockingGraph.Neighborhoods`).
  *
  * @param members the ascending profile ids of every block, by block id
  */
final class ProfileIndex private (
    val orderedBlocks: Vector[Block],
    val cardinalities: Array[Long],
    private[repro] val members: Array[Array[Int]],
    private val blockIds: Array[Array[Int]]) {

  /** The ARCS term of every block, `Arcs.term` of its cardinality. */
  private[repro] val arcsTerms: Array[Double] = cardinalities.map(Arcs.term)

  /** Ascending block ids of profile `i` (B_i). Empty if unindexed. */
  def blocksOf(i: Int): Array[Int] = blockIds(i)

  /** The ARCS weight of (i, j) if block `k`, which holds both, is their
    * Least Common Block Index (LeCoBI, Sec. 5.2.1), else -1: one merge,
    * which stops at the first shared id if it is below `k`. Otherwise the
    * terms add from 0.0 in ascending block id.
    */
  private[repro] def arcsIfLeast(k: Int, i: Int, j: Int): Double = {
    val a = blockIds(i); val b = blockIds(j)
    var x = 0; var y = 0; var s = 0.0
    while (x < a.length && y < b.length) {
      if (a(x) == b(y)) {
        if (a(x) < k) return -1.0
        s += arcsTerms(a(x)); x += 1; y += 1
      }
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
    val (order, cards) = bc.cardinalityOrder
    val blocks = bc.blocks.toArray
    val ordered = new Array[Block](order.length)
    val members = new Array[Array[Int]](order.length)
    var k = 0
    while (k < order.length) { ordered(k) = blocks(order(k)); members(k) = ordered(k).profiles; k += 1 }
    // listed in ascending block id, so every profile's array is sorted
    new ProfileIndex(ordered.toVector, order.map(cards), members, Block.blockLists(members, bc.pc.size))
  }
}
