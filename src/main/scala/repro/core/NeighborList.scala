package repro.core

import scala.collection.mutable
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

  /** Build the Neighbor List of a collection from its attribute value tokens. */
  def build(pc: ProfileCollection, seed: Int = 42): NeighborList =
    fromPlacements(Tokenizer.placements(pc), pc.size, seed)

  /** Build from explicit (key, profileId) placements — used by tests and by
    * the schema-based PSN (single key per profile).
    */
  def fromPlacements(
      placements: Seq[(String, Int)],
      nProfiles: Int,
      seed: Int = 42): NeighborList = {
    // The order of a stable sort on (key, tie): keys are ranked through a
    // sorted dictionary of the distinct keys, and the (tie, input position)
    // tie-break packs into one Long, tie · 2^31 + position.
    val n = placements.size
    val ids = new Array[Int](n)
    val rank = new Array[Int](n)
    val payload = new Array[Long](n)
    val dictionary = new java.util.HashMap[String, Integer]
    val firstSeen = mutable.ArrayBuffer.empty[String]
    var k = 0
    for ((key, id) <- placements) {
      var d = dictionary.get(key)
      if (d == null) { d = firstSeen.size; dictionary.put(key, d); firstSeen += key }
      ids(k) = id
      rank(k) = d // the key's first-seen index, replaced by its rank below
      payload(k) = (tie(key, id, seed).toLong << 31) | k
      k += 1
    }
    val sortedKeys = firstSeen.toArray.sorted
    val rankOfFirstSeen = new Array[Int](sortedKeys.length)
    for (r <- sortedKeys.indices) rankOfFirstSeen(dictionary.get(sortedKeys(r))) = r
    k = 0
    while (k < n) { rank(k) = rankOfFirstSeen(rank(k)); k += 1 }

    val (order, start) = RankSort.sort(rank, sortedKeys.length, payload)
    val entries = new Array[Int](n)
    val keys    = new Array[String](n)
    for (r <- sortedKeys.indices; pos <- start(r) until start(r + 1)) {
      entries(pos) = ids((order(pos) & Int.MaxValue).toInt)
      keys(pos) = sortedKeys(r)
    }
    val placed = new Array[Int](nProfiles)
    entries.foreach(placed(_) += 1)
    val positionIndex = placed.map(new Array[Int](_))
    java.util.Arrays.fill(placed, 0)
    var pos = 0
    while (pos < n) {
      val id = entries(pos)
      positionIndex(id)(placed(id)) = pos
      placed(id) += 1
      pos += 1
    }
    new NeighborList(entries, keys, positionIndex)
  }
}
