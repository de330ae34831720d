package repro.core

import repro.blocking.{BlockingGraph, ProfileIndex}

/** Progressive Block Scheduling (Sec. 5.2.1, Algorithms 3 and 4).
  *
  * Blocks are processed in non-decreasing cardinality (Block Scheduling with
  * weights 1/||b||: the smaller, the more distinctive, the earlier). Inside
  * every block, repeated comparisons are discarded with the LeCoBI condition
  * on the Profile Index, and the surviving comparisons are sorted by their
  * Blocking Graph edge weight (ARCS, as in the paper) in descending order.
  *
  * Works uniformly for Dirty and Clean-clean ER — block cardinalities and
  * pair validity are delegated to the collection's ER type.
  */
final class PBS(pc: ProfileCollection, val profileIndex: ProfileIndex) extends ProgressiveMethod {
  val name = "PBS"

  /** The sorted Comparison List of block `k` (Algorithm 3 lines 4–12): the
    * block's non-repeated comparisons — its Blocking Graph edges — in
    * descending edge weight.
    */
  def blockComparisons(k: Int): Vector[Comparison] = sorted(k).toVector

  def emissions: Iterator[Comparison] =
    Iterator.range(0, profileIndex.orderedBlocks.size).flatMap(sorted)

  /** Block `k`'s edges, packed in (i, j) order, then ordered by
    * `RankSort.descending`; a `Comparison` is built only when read.
    */
  private def sorted(k: Int): Iterator[Comparison] = {
    val edges = BlockingGraph.BlockEdges(pc, profileIndex, k)
    val order = RankSort.descending(edges.weights, edges.n)
    Iterator.range(0, edges.n).map(x => edges.comparison(order(x)))
  }
}
