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
  * hash of (key, profileId): the paper calls the within-key order
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

  /** The seed of the tie-break hash. */
  private val TieSeed = 42

  /** The within-key tie-break of placement (`key`, `id`), for an id ≥ 0:
    * MurmurHash3 of `key#id` under `TieSeed`, streamed. The distributed
    * Neighbor List sorts by it too, so both lists are bit-identical.
    */
  def tie(key: String, id: Int): Int = streamedTie(tieState(key), id)

  /** Where every tie of `key` continues from (`streamedTie`):
    * `MurmurHash3.stringHash`'s state after the pairs of units of `key#`
    * that the key completes — its own pairs, and its odd last unit with '#'
    * — in the high 32 bits, the key's length in the low 32.
    */
  private[core] def tieState(key: String): Long = {
    var h = TieSeed
    var i = 0
    while (i + 1 < key.length) { h = MurmurHash3.mix(h, (key.charAt(i) << 16) + key.charAt(i + 1)); i += 2 }
    if (i < key.length) h = MurmurHash3.mix(h, (key.charAt(i) << 16) + '#')
    h.toLong << 32 | key.length
  }

  /** `stringHash` of `key#id` for an id ≥ 0, from `state = tieState(key)`:
    * the units left — '#' after a key of even length, then the digits of
    * `id` — are hashed as `stringHash` hashes them, with no string built.
    */
  private[core] def streamedTie(state: Long, id: Int): Int = {
    var digits = 0L // the digits of id, 4 bits each, the first lowest
    var length = 0
    var rest = id
    while ({ digits = digits << 4 | rest % 10; rest /= 10; length += 1; rest > 0 }) ()
    val keyLength = state.toInt
    var h = (state >>> 32).toInt
    var pending = if (keyLength % 2 == 0) '#'.toInt else -1
    var d = 0
    while (d < length) {
      val unit = '0' + (digits >>> 4 * d & 15).toInt
      if (pending < 0) pending = unit
      else { h = MurmurHash3.mix(h, (pending << 16) + unit); pending = -1 }
      d += 1
    }
    if (pending >= 0) h = MurmurHash3.mixLast(h, pending)
    MurmurHash3.finalizeHash(h, keyLength + 1 + length)
  }

  /** Placements below which a range is not worth a task of its own. */
  private val MinPlacements = 1L << 13

  /** Build the Neighbor List of a collection from its `TokenIndex`: one
    * placement per (profile, distinct token), in the index's order.
    */
  def build(pc: ProfileCollection): NeighborList = {
    val index = TokenIndex(pc)
    sorted(index.tokens, index.tokenIds, index.placementProfiles, pc.size, ForkJoin.ranges(_, MinPlacements)(_))
  }

  /** Build from explicit (key, profileId) placements — used by tests and by
    * the schema-based PSN (single key per profile).
    */
  def fromPlacements(placements: Seq[(String, Int)], nProfiles: Int): NeighborList = {
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
    sorted(dictionary.strings, keyOf, ids, nProfiles, ForkJoin.ranges(_, MinPlacements)(_))
  }

  /** The list of placements k: profile `ids(k)` under key `keys(keyOf(k))`,
    * in the order of a stable sort on (key, tie). `keys` are distinct, and
    * ids are ≥ 0.
    *
    * `RankSort.strings` ranks the keys and `RankSort.group` groups the
    * placements by rank. `cut(runs, work)` cuts the runs into ranges of
    * about equal placements, which are sorted in parallel: in a run of more
    * than one placement, every placement's tie · 2^31 + k is computed from
    * the key's `tieState` and the run sorted by it, the order (tie, k). The
    * Position Index groups the positions by profile.
    */
  private[repro] def sorted(
      keys: Array[String],
      keyOf: Array[Int],
      ids: Array[Int],
      nProfiles: Int,
      cut: (Int, Int => Long) => Array[Int]): NeighborList = {
    val n = ids.length
    val keyOrder = RankSort.strings(keys)
    val rankOfKey = new Array[Int](keys.length)
    var r = 0
    while (r < keys.length) { rankOfKey(keyOrder(r)) = r; r += 1 }
    val rank = new Array[Int](n)
    var x = 0
    while (x < n) { rank(x) = rankOfKey(keyOf(x)); x += 1 }
    val (order, start) = RankSort.group(rank, keys.length)

    val entries = new Array[Int](n)
    val listKeys = new Array[String](n)
    val payload = new Array[Long](n)
    val bounds = cut(keys.length, r => (start(r + 1) - start(r)).toLong)
    ForkJoin.all(bounds.length - 1) { q =>
      var r = bounds(q)
      while (r < bounds(q + 1)) {
        val key = keys(keyOrder(r))
        val from = start(r)
        val until = start(r + 1)
        if (until - from > 1) {
          val state = tieState(key)
          var pos = from
          while (pos < until) {
            val k = order(pos)
            payload(pos) = (streamedTie(state, ids(k)).toLong << 31) | k
            pos += 1
          }
          Arrays.sort(payload, from, until)
          pos = from
          while (pos < until) { order(pos) = (payload(pos) & Int.MaxValue).toInt; pos += 1 }
        }
        var pos = from
        while (pos < until) { entries(pos) = ids(order(pos)); listKeys(pos) = key; pos += 1 }
        r += 1
      }
    }
    val (positions, from) = RankSort.group(entries, nProfiles)
    val positionIndex = Array.tabulate(nProfiles)(p => Arrays.copyOfRange(positions, from(p), from(p + 1)))
    new NeighborList(entries, listKeys, positionIndex)
  }
}
