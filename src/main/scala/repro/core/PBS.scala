package repro.core

import repro.blocking.{Arcs, BlockWeighting, BlockingGraph, ProfileIndex}

/** Progressive Block Scheduling (Sec. 5.2.1, Algorithms 3 and 4).
  *
  * Blocks are processed in non-decreasing cardinality (Block Scheduling with
  * weights 1/||b||: the smaller, the more distinctive, the earlier). Inside
  * every block, repeated comparisons are discarded with the LeCoBI condition
  * on the Profile Index, and the surviving comparisons are sorted by their
  * Blocking Graph edge weight (ARCS by default) in descending order.
  *
  * Works uniformly for Dirty and Clean-clean ER — block cardinalities and
  * pair validity are delegated to the collection's ER type.
  */
final class PBS(
    pc: ProfileCollection,
    val profileIndex: ProfileIndex,
    scheme: BlockWeighting = Arcs) extends ProgressiveMethod {
  val name = "PBS"

  /** The sorted Comparison List of block `k` (Algorithm 3 lines 4–12): the
    * block's non-repeated comparisons — its Blocking Graph edges — in
    * descending edge weight.
    */
  def blockComparisons(k: Int): Vector[Comparison] =
    BlockingGraph.blockEdges(pc, profileIndex, k, scheme).toVector
      .sorted(Comparison.byDescendingWeight)

  def emissions: Iterator[Comparison] =
    Iterator.range(0, profileIndex.orderedBlocks.size).flatMap(blockComparisons(_).iterator)
}
