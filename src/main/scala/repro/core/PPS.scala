package repro.core

import repro.blocking.{BlockingGraph, ProfileIndex}
import scala.collection.mutable

/** Progressive Profile Scheduling (Sec. 5.2.2, Algorithms 5 and 6).
  *
  * Entity-centric: every profile gets a *duplication likelihood* — the
  * average ARCS weight of its incident Blocking Graph edges — and profiles are
  * processed in decreasing duplication likelihood (the Sorted Profile List).
  *
  * Initialization emits the top-weighted comparison of every node (collected
  * into a set, so none repeats). The emission phase then walks the Sorted
  * Profile List; for each profile it gathers the `kMax` top-weighted
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
    * deduplicated set of per-node top comparisons, sorted.
    *
    * A profile's duplication likelihood is the sum of its edge weights in the
    * neighbourhood kernel's first-touch order — ascending block id, then
    * ascending profile id — divided by its degree. The order fixes the
    * rounding of the sum, so it depends on the Profile Index alone.
    */
  def initialize(): PPS.Init = {
    val nb = new BlockingGraph.Neighborhoods(pc, profileIndex)
    val top = mutable.ArrayBuffer.empty[Comparison]
    val topPairs = mutable.HashSet.empty[Long]
    val ids = mutable.ArrayBuilder.make[Int]
    val likelihoods = mutable.ArrayBuilder.make[Double]
    var i = 0
    while (i < pc.size) {
      val n = nb.load(i)
      if (n > 0) {
        var sum = 0.0
        var best = 0
        var k = 0
        while (k < n) {
          sum += nb.weight(k)
          if (PPS.precedes(nb.weight(k), nb.neighbor(k), nb.weight(best), nb.neighbor(best))) best = k
          k += 1
        }
        ids += i
        likelihoods += -(sum / n)
        val c = Comparison.of(i, nb.neighbor(best), nb.weight(best))
        if (topPairs.add(PPS.pack(c))) top += c
      }
      i += 1
    }
    // the Sorted Profile List: descending likelihood, ties by ascending id
    val (rank, distinct) = RankSort.rank(likelihoods.result(), ids.length)
    val profiles = ids.result()
    val sortedProfiles = RankSort.group(rank, distinct.length)._1.iterator.map(profiles(_)).toVector
    PPS.Init(top.toVector.sorted(Comparison.byDescendingWeight), sortedProfiles)
  }

  def emissions: Iterator[Comparison] = {
    val init = initialize()
    val emittedAtInit = init.topComparisons.iterator.map(PPS.pack).toArray
    java.util.Arrays.sort(emittedAtInit)
    val checked = new Array[Boolean](pc.size)
    val nb = new BlockingGraph.Neighborhoods(pc, profileIndex)
    init.topComparisons.iterator ++ init.sortedProfileList.iterator.flatMap { i =>
      checked(i) = true
      val n = nb.load(i)
      val candidates = mutable.ArrayBuffer.empty[Comparison]
      for (k <- 0 until n if !checked(nb.neighbor(k))) {
        val c = Comparison.of(i, nb.neighbor(k), nb.weight(k))
        if (java.util.Arrays.binarySearch(emittedAtInit, PPS.pack(c)) < 0) candidates += c
      }
      candidates.sorted(Comparison.byDescendingWeight).iterator.take(kMax)
    }
  }
}

object PPS {

  /** Result of the initialization phase (Algorithm 5). */
  final case class Init(
      topComparisons: Vector[Comparison],
      sortedProfileList: Vector[Int])

  private def pack(c: Comparison): Long = (c.i.toLong << 32) | c.j

  /** Does edge (i, j) with weight `w` come before edge (i, bj) with weight
    * `bw` in `Comparison.byDescendingWeight`? For two edges of one node i,
    * the canonical pairs order as their other ends j and bj do.
    */
  private def precedes(w: Double, j: Int, bw: Double, bj: Int): Boolean = {
    val c = java.lang.Double.compare(-w, -bw)
    c < 0 || (c == 0 && j < bj)
  }
}
