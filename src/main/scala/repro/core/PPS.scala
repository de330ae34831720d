package repro.core

import java.util.Arrays
import repro.blocking.{BlockingGraph, ProfileIndex}

/** Progressive Profile Scheduling (Sec. 5.2.2, Algorithms 5 and 6).
  *
  * Entity-centric: every profile gets a *duplication likelihood* — the
  * average ARCS weight of its incident Blocking Graph edges — and profiles are
  * processed in decreasing duplication likelihood (the Sorted Profile List).
  *
  * Initialization emits the top-weighted comparison of every node (each
  * pair once). The emission phase then walks the Sorted Profile List; for
  * each profile it gathers the `kMax` top-weighted
  * comparisons among its not-yet-checked neighbors (checkedEntities skips
  * pairs whose more-reliable endpoint was already processed). Comparisons
  * already emitted during initialization are not re-emitted.
  *
  * `kMax` is not fixed in the paper; it is a constructor parameter here
  * (default 50, large enough for the per-profile match degree of every
  * evaluation dataset — see DESIGN.md §4).
  */
final class PPS(
    pc: ProfileCollection,
    val profileIndex: ProfileIndex,
    kMax: Int = 50) extends ProgressiveMethod {
  val name = "PPS"

  /** Algorithm 5: duplication likelihoods, Sorted Profile List and the
    * deduplicated set of per-node top comparisons, sorted, with every
    * node's top neighbour. The
    * neighbourhoods are loaded in the contiguous ranges of profile ids of
    * about equal neighbourhood work that `ForkJoin.ranges` cuts.
    *
    * A profile's duplication likelihood is the sum of its edge weights in the
    * neighbourhood kernel's first-touch order — ascending block id, then
    * ascending profile id — divided by its degree. The order fixes the
    * rounding of the sum, so it depends on the Profile Index alone.
    */
  def initialize(): PPS.Init = initialize(ForkJoin.ranges(pc.size, PPS.MinWork)(neighborhoodWork))

  /** The kernel's work to load the neighbourhood of node `i`: the members of
    * its blocks.
    */
  private def neighborhoodWork(i: Int): Long = {
    val blocks = profileIndex.blocksOf(i)
    var work = 0L
    var b = 0
    while (b < blocks.length) { work += profileIndex.members(blocks(b)).length; b += 1 }
    work
  }

  /** Algorithm 5 with the neighbourhoods loaded in the contiguous ranges of
    * profile ids `bounds` (range q is `bounds(q) until bounds(q + 1)`), in
    * parallel, one kernel per thread. A node's likelihood and top edge
    * depend on its own neighbourhood alone; they are kept by id and merged
    * in id order, so the result does not depend on the cut.
    */
  private[repro] def initialize(bounds: Array[Int]): PPS.Init = {
    // every node's likelihood, and the other end and the weight of its top
    // edge; the other end is -1 for a node without edges
    val likelihood = new Array[Double](pc.size)
    val topJ = new Array[Int](pc.size)
    val topW = new Array[Double](pc.size)
    ForkJoin.all(bounds.length - 1, () => new BlockingGraph.Neighborhoods(pc, profileIndex)) { (nb, q) =>
      var i = bounds(q)
      while (i < bounds(q + 1)) {
        val n = nb.load(i)
        topJ(i) = -1
        if (n > 0) {
          var sum = 0.0
          var best = 0
          var k = 0
          while (k < n) {
            sum += nb.weight(k)
            if (PPS.precedes(nb.weight(k), nb.neighbor(k), nb.weight(best), nb.neighbor(best))) best = k
            k += 1
          }
          likelihood(i) = sum / n
          topJ(i) = nb.neighbor(best)
          topW(i) = nb.weight(best)
        }
        i += 1
      }
    }
    // the Sorted Profile List: the nodes by descending likelihood, ties by
    // ascending id
    val sortedProfiles = RankSort.descending(likelihood, pc.size).filter(topJ(_) >= 0).toVector
    // the top edges, each pair once: a pair that is the top edge of both its
    // ends is taken at its smaller end
    val pairs = Array.range(0, pc.size).collect {
      case i if topJ(i) >= 0 && !(topJ(topJ(i)) == i && topJ(i) < i) => PPS.pack(i, topJ(i))
    }
    Arrays.sort(pairs)
    val weights = pairs.map { p =>
      val i = (p >>> 32).toInt
      if (topJ(i) == p.toInt) topW(i) else topW(p.toInt)
    }
    val top = RankSort.descending(weights, pairs.length).iterator.map { x =>
      Comparison((pairs(x) >>> 32).toInt, pairs(x).toInt, weights(x))
    }
    PPS.Init(top.toVector, sortedProfiles)(topJ)
  }

  def emissions: Iterator[Comparison] = {
    val init = initialize()
    val top = init.topNeighbor
    val checked = new Array[Boolean](pc.size)
    val nb = new BlockingGraph.Neighborhoods(pc, profileIndex)
    init.topComparisons.iterator ++ init.sortedProfileList.iterator.flatMap { i =>
      checked(i) = true
      val n = nb.load(i)
      val candidates = new Array[Int](n)
      var m = 0
      var k = 0
      while (k < n) {
        val j = nb.neighbor(k)
        // (i, j) was emitted at initialization if it is the top edge of i or of j
        if (!checked(j) && top(i) != j && top(j) != i) { candidates(m) = j; m += 1 }
        k += 1
      }
      // the kMax top by (−weight, j): for the edges of node i, the
      // canonical pairs order as their other ends do
      Arrays.sort(candidates, 0, m)
      val weights = new Array[Double](m)
      k = 0
      while (k < m) { weights(k) = nb.weightTo(candidates(k)); k += 1 }
      val order = RankSort.descending(weights, m)
      Iterator.range(0, math.min(kMax, m)).map(x => Comparison.of(i, candidates(order(x)), weights(order(x))))
    }
  }
}

object PPS {

  /** Result of the initialization phase (Algorithm 5).
    *
    * @param topNeighbor every node's top neighbour — the other end of its
    *                    top comparison — or -1 for a node without edges; it
    *                    takes no part in equality
    */
  final case class Init(
      topComparisons: Vector[Comparison],
      sortedProfileList: Vector[Int])(
      private[repro] val topNeighbor: Array[Int])

  /** Neighbourhood work below which a range of profiles is not worth a task
    * of its own.
    */
  private val MinWork = 1L << 14

  /** The pair of `a` and `b`, canonical and packed: `min << 32 | max`. */
  private def pack(a: Int, b: Int): Long =
    if (a < b) a.toLong << 32 | b else b.toLong << 32 | a

  /** Does edge (i, j) with weight `w` come before edge (i, bj) with weight
    * `bw` in the descending-weight order of comparisons — negated weights
    * in `java.lang.Double.compare` order, ties by (i, j)? For two edges of
    * one node i, the canonical pairs order as their other ends j and bj do.
    */
  private def precedes(w: Double, j: Int, bw: Double, bj: Int): Boolean = {
    val c = java.lang.Double.compare(-w, -bw)
    c < 0 || (c == 0 && j < bj)
  }
}
