package repro.blocking

import java.util.Arrays
import repro.core.{ProfileCollection, Tokenizer}
import scala.collection.mutable

/** The tokens of a profile collection, indexed once for any number of block
  * builds: the distinct tokens in first-seen order, and every profile's
  * token ids in profile order.
  *
  * It holds the one block builder of the equality-based methods: Token
  * Blocking keys every profile by its tokens, each SA-PSAB layer by their
  * suffixes of one length — at most one key per token.
  */
final class TokenIndex private (
    pc: ProfileCollection,
    val tokens: Array[String],
    start: Array[Int],
    tokenIds: Array[Int]) {

  /** The blocks of the key `keyOf(token)` of every profile token (none
    * where it is `None`), in key order.
    *
    * A block holds the ascending, distinct ids of the profiles with at least
    * one token yielding its key; blocks without an executable comparison
    * (`Block.cardinality` 0) are dropped. `keyOf` runs once per distinct
    * token. The memberships are grouped by a counting sort on the key id:
    * visited in profile order, every block's ids come out ascending, a
    * profile's repeats adjacent.
    */
  def blocks(keyOf: String => Option[String]): BlockCollection = {
    val keyIds = new java.util.HashMap[String, Integer]
    val keys = mutable.ArrayBuffer.empty[String]
    // the key id of every token, -1 for none
    val tokenKey = new Array[Int](tokens.length)
    var t = 0
    while (t < tokens.length) {
      tokenKey(t) = keyOf(tokens(t)) match {
        case Some(key) =>
          var k = keyIds.get(key)
          if (k == null) { k = keys.size; keyIds.put(key, k); keys += key }
          k
        case None => -1
      }
      t += 1
    }

    val (members, blockStart) = group(tokenKey, keys.size)

    val profilesOf = new Array[Array[Int]](keys.size)
    val survivors = mutable.ArrayBuffer.empty[String]
    val ids = new Array[Int](pc.size)
    var k = 0
    while (k < keys.size) {
      var n = 0
      var x = blockStart(k)
      while (x < blockStart(k + 1)) {
        if (n == 0 || ids(n - 1) != members(x)) { ids(n) = members(x); n += 1 }
        x += 1
      }
      if (Block.cardinality(pc, ids, n) > 0) { profilesOf(k) = Arrays.copyOf(ids, n); survivors += keys(k) }
      k += 1
    }
    val blocks = survivors.toArray.sorted.iterator.map(key => Block(key, profilesOf(keyIds.get(key))))
    BlockCollection(blocks.toVector, pc)
  }

  /** The memberships of the keys `tokenKey(t)` (-1 for none) of every
    * placement, counting-sorted on the key id: block k's are
    * `members(blockStart(k) until blockStart(k + 1))`.
    *
    * @return the members and the block starts
    */
  private def group(tokenKey: Array[Int], nKeys: Int): (Array[Int], Array[Int]) = {
    val blockStart = new Array[Int](nKeys + 1)
    var x = 0
    while (x < tokenIds.length) {
      val k = tokenKey(tokenIds(x))
      if (k >= 0) blockStart(k + 1) += 1
      x += 1
    }
    var k = 0
    while (k < nKeys) { blockStart(k + 1) += blockStart(k); k += 1 }
    val next = Arrays.copyOf(blockStart, nKeys)
    val members = new Array[Int](blockStart(nKeys))
    var p = 0
    while (p < pc.size) {
      x = start(p)
      while (x < start(p + 1)) {
        val k = tokenKey(tokenIds(x))
        if (k >= 0) { members(next(k)) = p; next(k) += 1 }
        x += 1
      }
      p += 1
    }
    (members, blockStart)
  }
}

object TokenIndex {

  /** Index the tokens of `pc`.
    *
    * `tokens` are the distinct tokens in first-seen order; the token ids of
    * profile p are `tokenIds(start(p) until start(p + 1))`.
    */
  def apply(pc: ProfileCollection): TokenIndex = {
    val ids = new java.util.HashMap[String, Integer]
    val tokens = mutable.ArrayBuffer.empty[String]
    val tokenIds = mutable.ArrayBuilder.make[Int]
    val start = new Array[Int](pc.size + 1)
    for (p <- pc.profiles) {
      for (tok <- Tokenizer.profileKeys(p)) {
        var t = ids.get(tok)
        if (t == null) { t = tokens.size; ids.put(tok, t); tokens += tok }
        tokenIds += t
      }
      start(p.id + 1) = tokenIds.length
    }
    new TokenIndex(pc, tokens.toArray, start, tokenIds.result())
  }
}
