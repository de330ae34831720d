package repro.blocking

import java.util.Arrays
import repro.core.{CleanCleanEr, Comparison, ProfileCollection}

/** The Blocking Graph (Sec. 3.2): nodes are profiles, edges are the
  * distinct valid comparisons of a block collection, weighted with ARCS (the
  * Meta-blocking scheme of PBS and PPS).
  *
  * The paper stresses that materializing the full graph is impractical at
  * web scale, so the progressive methods only ever traverse it through the
  * Profile Index: PBS one block's edges at a time (`BlockEdges`), PPS one
  * node's neighbourhood at a time (`Neighborhoods`).
  */
object BlockingGraph {

  /** The weighted edges materialized from one block — its valid pairs whose
    * least common block (LeCoBI) is that block — packed: the first `n` of
    * `pairs` (`i << 32 | j`) and of `weights`.
    */
  private[repro] final class BlockEdges(val pairs: Array[Long], val weights: Array[Double], val n: Int) {
    def comparison(x: Int): Comparison = Comparison((pairs(x) >>> 32).toInt, pairs(x).toInt, weights(x))
  }

  private[repro] object BlockEdges {

    /** The edges of block `k`, in (i, j) order: for every valid pair of its
      * members, LeCoBI and the ARCS weight come from one Profile Index merge
      * (`arcsIfLeast`). The pair test is hoisted per member: its source, for
      * Clean-clean ER; in Dirty ER every pair of distinct members is valid.
      */
    def apply(pc: ProfileCollection, pi: ProfileIndex, k: Int): BlockEdges = {
      val ids = pi.members(k)
      val cleanClean = pc.erType == CleanCleanEr
      var pairs = new Array[Long](math.min(pi.cardinalities(k), 64L).toInt)
      var weights = new Array[Double](pairs.length)
      var n = 0
      var x = 0
      while (x < ids.length) {
        val i = ids(x)
        val si = pc.source(i)
        var y = x + 1
        while (y < ids.length) {
          val j = ids(y)
          if (!cleanClean || pc.source(j) != si) {
            val w = pi.arcsIfLeast(k, i, j)
            if (w >= 0) {
              if (n == pairs.length) { pairs = Arrays.copyOf(pairs, 2 * n); weights = Arrays.copyOf(weights, 2 * n) }
              pairs(n) = i.toLong << 32 | j
              weights(n) = w
              n += 1
            }
          }
          y += 1
        }
        x += 1
      }
      new BlockEdges(pairs, weights, n)
    }
  }

  /** The weighted neighborhood of node `i` (valid co-occurring profiles). */
  def neighborhood(pc: ProfileCollection, pi: ProfileIndex, i: Int): Map[Int, Double] = {
    val nb = new Neighborhoods(pc, pi)
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
    * Profile Index merge (`ProfileIndex.arcsIfLeast`). The neighbors are listed
    * in first-touch order: ascending block id, then ascending profile id.
    * Loading the next node resets only the entries the last one touched.
    */
  final class Neighborhoods(pc: ProfileCollection, pi: ProfileIndex) {
    private val acc = new Array[Double](pc.size)
    private val seen = new Array[Boolean](pc.size)
    private val touched = new Array[Int](pc.size)
    private val cleanClean = pc.erType == CleanCleanEr
    private var degree = 0

    /** Load the neighborhood of node `i`; returns its degree. The pair test
      * is hoisted: j is a neighbor if its source differs from i's, for
      * Clean-clean ER, or if it is not i, for Dirty ER.
      */
    def load(i: Int): Int = {
      var k = 0
      while (k < degree) { acc(touched(k)) = 0.0; seen(touched(k)) = false; k += 1 }
      degree = 0
      val si = pc.source(i)
      val blocks = pi.blocksOf(i)
      var b = 0
      while (b < blocks.length) {
        val c = pi.arcsTerms(blocks(b))
        val ids = pi.members(blocks(b))
        var x = 0
        while (x < ids.length) {
          val j = ids(x)
          if (if (cleanClean) pc.source(j) != si else j != i) {
            if (!seen(j)) { seen(j) = true; touched(degree) = j; degree += 1 }
            acc(j) += c
          }
          x += 1
        }
        b += 1
      }
      degree
    }

    /** The `k`-th neighbor of the loaded node, `k < degree`. */
    def neighbor(k: Int): Int = touched(k)

    /** The weight of the edge to the `k`-th neighbor. */
    def weight(k: Int): Double = acc(touched(k))

    /** The weight of the edge to the neighbor `j` of the loaded node. */
    def weightTo(j: Int): Double = acc(j)
  }
}
