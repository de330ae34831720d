package repro.core

import java.util.Arrays
import repro.blocking.TokenIndex
import scala.util.hashing.MurmurHash3

/** The Neighbor List (Sec. 3.2) and its Position Index (Sec. 5.1).
  *
  * The Neighbor List is the list of profile ids obtained by sorting every
  * (blocking key, profile) placement alphabetically by key. With
  * schema-agnostic keys each profile has one placement per distinct
  * attribute-value token, so it appears multiple times (Fig. 3e).
  *
  * Ties inside a run of equal keys are ordered by `NeighborList.tie`, a
  * seeded hash of (key, profileId): the paper calls the within-key order
  * "relatively random" (*coincidental proximity*); hashing reproduces that
  * randomness deterministically, so tests and benchmarks are repeatable.
  *
  * @param entries       `entries(pos)` = profile id at Neighbor List position `pos`
  * @param keys          `keys(pos)` = the blocking key that put it there
  * @param positionIndex Position Index: profile id -> ascending positions in `entries`
  */
final class NeighborList private (
    val entries: Array[Int],
    val keys: Array[String],
    val positionIndex: Array[Array[Int]]) {

  /** Number of placements (positions) in the list. */
  def size: Int = entries.length

  /** Positions of profile `i` — empty if the profile produced no tokens. */
  def positionsOf(i: Int): Array[Int] = positionIndex(i)
}

object NeighborList {

  /** The within-key tie-break of placement (`key`, `id`): MurmurHash3 of
    * `key#id` under `seed`. The distributed Neighbor List sorts by it too,
    * so both lists are bit-identical.
    */
  def tie(key: String, id: Int, seed: Int = 42): Int = MurmurHash3.stringHash(s"$key#$id", seed)

  /** Placements below which a range is not worth a task of its own. */
  private val MinPlacements = 1L << 13

  /** Build the Neighbor List of a collection from its `TokenIndex`: one
    * placement per (profile, distinct token), in the index's order.
    */
  def build(pc: ProfileCollection, seed: Int = 42): NeighborList = {
    val index = TokenIndex(pc)
    fromIndex(index, pc.size, seed, ForkJoin.ranges(index.tokenIds.length, MinPlacements)(_ => 1L))
  }

  /** The same list, tokenized and filled in `ranges` contiguous ranges. */
  private[repro] def build(pc: ProfileCollection, seed: Int, ranges: Int): NeighborList = {
    val index = TokenIndex(pc, ranges)
    fromIndex(index, pc.size, seed, ForkJoin.cut(index.tokenIds.length, ranges)(_ => 1L))
  }

  private def fromIndex(index: TokenIndex, nProfiles: Int, seed: Int, bounds: Array[Int]): NeighborList =
    sorted(index.tokens, index.tokenIds, index.placementProfiles, nProfiles, seed, bounds)

  /** Build from explicit (key, profileId) placements — used by tests and by
    * the schema-based PSN (single key per profile).
    */
  def fromPlacements(
      placements: Seq[(String, Int)],
      nProfiles: Int,
      seed: Int = 42): NeighborList = {
    val n = placements.size
    val ids = new Array[Int](n)
    val keyOf = new Array[Int](n)
    val dictionary = new TokenIndex.Dictionary(n)
    var k = 0
    for ((key, id) <- placements) {
      ids(k) = id
      keyOf(k) = dictionary.id(key)
      k += 1
    }
    sorted(dictionary.strings, keyOf, ids, nProfiles, seed, ForkJoin.ranges(n, MinPlacements)(_ => 1L))
  }

  /** The list of placements k: profile `ids(k)` under key `keys(keyOf(k))`,
    * in the order of a stable sort on (key, tie). `keys` are distinct.
    *
    * The keys are sorted once, giving each its rank, and `RankSort.group`
    * groups the placements by rank. Every position's tie-break payload,
    * tie · 2^31 + k, is filled per range in parallel, then every rank's run
    * of payloads is sorted: the order (rank, tie, k). The Position Index
    * groups the positions by profile.
    */
  private def sorted(
      keys: Array[String],
      keyOf: Array[Int],
      ids: Array[Int],
      nProfiles: Int,
      seed: Int,
      bounds: Array[Int]): NeighborList = {
    val n = ids.length
    val sortedKeys = keys.clone()
    Arrays.parallelSort(sortedKeys: Array[String])
    val ranks = new TokenIndex.Dictionary(sortedKeys.length)
    sortedKeys.foreach(ranks.id)
    val rankOfKey = keys.map(ranks.id)
    val rank = new Array[Int](n)
    var x = 0
    while (x < n) { rank(x) = rankOfKey(keyOf(x)); x += 1 }
    val (order, start) = RankSort.group(rank, sortedKeys.length)

    val payload = new Array[Long](n)
    ForkJoin.all(bounds.length - 1) { q =>
      var pos = bounds(q)
      while (pos < bounds(q + 1)) {
        val k = order(pos)
        payload(pos) = (tie(keys(keyOf(k)), ids(k), seed).toLong << 31) | k
        pos += 1
      }
    }
    val entries = new Array[Int](n)
    val listKeys = new Array[String](n)
    var r = 0
    while (r < sortedKeys.length) {
      Arrays.sort(payload, start(r), start(r + 1))
      x = start(r)
      while (x < start(r + 1)) {
        entries(x) = ids((payload(x) & Int.MaxValue).toInt)
        listKeys(x) = sortedKeys(r)
        x += 1
      }
      r += 1
    }
    val (positions, from) = RankSort.group(entries, nProfiles)
    val positionIndex = Array.tabulate(nProfiles)(p => Arrays.copyOfRange(positions, from(p), from(p + 1)))
    new NeighborList(entries, listKeys, positionIndex)
  }
}
