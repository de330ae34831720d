package repro.blocking

import java.util.Arrays
import repro.core.{ProfileCollection, Tokenizer}
import scala.collection.mutable

/** The one block builder of the equality-based methods: Token Blocking keys
  * every profile by its tokens, SA-PSAB by their suffixes.
  */
object Blocks {

  /** The blocks of `pc` under the blocking keys `keysOf(token)` of every
    * profile token, in key order.
    *
    * A block holds the ascending, distinct ids of the profiles with at least
    * one token yielding its key; blocks without an executable comparison
    * (`Block.cardinality` 0) are dropped. `keysOf` runs once per distinct
    * token. Every membership is packed as `keyId << 32 | profileId`, so one
    * sort of a `Long` array groups the blocks, each in ascending profile id.
    */
  def fromTokens(pc: ProfileCollection)(keysOf: String => Seq[String]): BlockCollection = {
    val tokenIds = new java.util.HashMap[String, Integer]
    val keyIds = new java.util.HashMap[String, Integer]
    val keys = mutable.ArrayBuffer.empty[String]
    // the key ids of token t: tokenKeys(tokenStart(t) until tokenStart(t + 1))
    val tokenStart = mutable.ArrayBuilder.make[Int]
    val tokenKeys = mutable.ArrayBuilder.make[Int]
    tokenStart += 0
    val placedToken = mutable.ArrayBuilder.make[Int]
    val placedProfile = mutable.ArrayBuilder.make[Int]
    for (p <- pc.profiles; tok <- Tokenizer.profileKeys(p)) {
      var t = tokenIds.get(tok)
      if (t == null) {
        t = tokenIds.size
        tokenIds.put(tok, t)
        for (key <- keysOf(tok)) {
          var k = keyIds.get(key)
          if (k == null) { k = keys.size; keyIds.put(key, k); keys += key }
          tokenKeys += k
        }
        tokenStart += tokenKeys.length
      }
      placedToken += t
      placedProfile += p.id
    }
    val start = tokenStart.result()
    val keysOfToken = tokenKeys.result()
    val token = placedToken.result()
    val profile = placedProfile.result()
    var size = 0
    for (t <- token) size += start(t + 1) - start(t)
    val packed = new Array[Long](size)
    var m = 0
    for (x <- token.indices) {
      var y = start(token(x))
      while (y < start(token(x) + 1)) { packed(m) = (keysOfToken(y).toLong << 32) | profile(x); m += 1; y += 1 }
    }
    Arrays.sort(packed)

    val survivors = mutable.ArrayBuffer.empty[Block]
    val ids = new Array[Int](pc.size)
    var at = 0
    while (at < packed.length) {
      val key = (packed(at) >>> 32).toInt
      var n = 0
      while (at < packed.length && (packed(at) >>> 32).toInt == key) {
        val id = packed(at).toInt
        if (n == 0 || ids(n - 1) != id) { ids(n) = id; n += 1 }
        at += 1
      }
      if (Block.cardinality(pc, ids, n) > 0) survivors += Block(keys(key), Arrays.copyOf(ids, n))
    }
    BlockCollection(survivors.sortBy(_.key).toVector, pc)
  }
}
