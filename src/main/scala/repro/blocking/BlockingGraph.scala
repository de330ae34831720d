package repro.blocking

import repro.core.{Comparison, ProfileCollection}

/** A materialized Blocking Graph (Sec. 3.2): nodes are profiles, edges are
  * the distinct valid comparisons of a block collection, weighted by a
  * Meta-blocking scheme.
  *
  * The paper stresses that materializing the full graph is impractical at
  * web scale — the progressive methods therefore only ever *traverse* it
  * through the Profile Index. This explicit edge list exists for tests,
  * small datasets and the paper's running example (Fig. 3c).
  */
object BlockingGraph {

  /** All distinct edges with weights, in deterministic order: the block
    * edges of every block, in block id order, so no duplicates.
    */
  def edges(
      pc: ProfileCollection,
      pi: ProfileIndex,
      scheme: BlockWeighting = Arcs): Vector[Comparison] =
    Iterator.range(0, pi.orderedBlocks.size).flatMap(blockEdges(pc, pi, _, scheme)).toVector

  /** The weighted edges materialized from block `k`: its valid pairs whose
    * least common block (LeCoBI) is `k`, in (i, j) order.
    */
  def blockEdges(
      pc: ProfileCollection,
      pi: ProfileIndex,
      k: Int,
      scheme: BlockWeighting): Iterator[Comparison] =
    pi.orderedBlocks(k).pairs(pc).collect {
      case (i, j) if pi.lecobi(i, j) == k => Comparison.of(i, j, scheme.weight(i, j, pi))
    }

  /** The weighted neighborhood of node `i` (valid co-occurring profiles). */
  def neighborhood(
      pc: ProfileCollection,
      pi: ProfileIndex,
      i: Int,
      scheme: BlockWeighting = Arcs): Map[Int, Double] = {
    val nb = new Neighborhoods(pc, pi, scheme)
    val n = nb.load(i)
    Iterator.range(0, n).map(k => nb.neighbor(k) -> nb.weight(k)).toMap
  }

  /** The neighbourhood kernel: the weighted neighborhoods of the Blocking
    * Graph, one node at a time, without materializing the graph — the
    * node-centric traversal of the Profile Index that PPS runs on every
    * profile.
    *
    * A node's edge weights accumulate in one `Double` per profile, dense over
    * |P|, in ascending block id, so every weight has the raw bits of the
    * Profile Index merge in `BlockWeighting.weight`. The neighbors are listed
    * in first-touch order: ascending block id, then ascending profile id.
    * Loading the next node resets only the entries the last one touched.
    */
  final class Neighborhoods(pc: ProfileCollection, pi: ProfileIndex, scheme: BlockWeighting) {
    private val acc = new Array[Double](pc.size)
    private val seen = new Array[Boolean](pc.size)
    private val touched = new Array[Int](pc.size)
    private var degree = 0

    /** Load the neighborhood of node `i`; returns its degree. */
    def load(i: Int): Int = {
      var k = 0
      while (k < degree) { acc(touched(k)) = 0.0; seen(touched(k)) = false; k += 1 }
      degree = 0
      for (bk <- pi.blocksOf(i)) {
        val c = scheme.perBlock(pi.cardinalities(bk))
        for (j <- pi.orderedBlocks(bk).profiles if pc.validPair(i, j)) {
          if (!seen(j)) { seen(j) = true; touched(degree) = j; degree += 1 }
          acc(j) += c
        }
      }
      k = 0
      while (k < degree) { val j = touched(k); acc(j) = scheme.combine(acc(j), i, j, pi); k += 1 }
      degree
    }

    /** The `k`-th neighbor of the loaded node, `k < degree`. */
    def neighbor(k: Int): Int = touched(k)

    /** The weight of the edge to the `k`-th neighbor. */
    def weight(k: Int): Double = acc(touched(k))
  }
}
