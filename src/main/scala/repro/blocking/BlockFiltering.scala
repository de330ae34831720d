package repro.blocking

/** Block Filtering (step 3 of the Token Blocking Workflow, Sec. 7): retain
  * every profile only in its `ratio` (paper: 80 %) smallest — i.e. most
  * distinctive — blocks, then drop blocks left without any executable
  * comparison.
  */
object BlockFiltering {

  def filter(bc: BlockCollection, ratio: Double = 0.8): BlockCollection = {
    val pc = bc.pc
    // original block indices ordered by (cardinality, key) — smallest first
    val keys  = bc.blocks.map(b => (b.cardinality(pc), b.key))
    val order = bc.blocks.indices.sortBy(keys)
    // blocks of each profile, smallest first
    val perProfile = scala.collection.mutable.HashMap
      .empty[Int, scala.collection.mutable.ArrayBuffer[Int]]
    for (bi <- order; p <- bc.blocks(bi).profiles)
      perProfile.getOrElseUpdate(p, scala.collection.mutable.ArrayBuffer.empty[Int]) += bi
    // for each original block, the profiles that keep it
    val retained = Array.fill(bc.blocks.size)(scala.collection.mutable.TreeSet.empty[Int])
    for ((p, bis) <- perProfile)
      bis.take(math.max(1, math.ceil(ratio * bis.size).toInt)).foreach(bi => retained(bi) += p)
    val blocks = bc.blocks.zipWithIndex
      .map { case (b, bi) => Block(b.key, retained(bi).toArray) }
      .filter(_.cardinality(pc) > 0)
    bc.copy(blocks = blocks)
  }
}
