package repro.blocking

import java.util.Arrays
import repro.core.{ForkJoin, ProfileCollection, RankSort, Tokenizer}
import scala.collection.mutable

/** The tokens of a profile collection — the one tokenization of every
  * schema-agnostic method: the distinct tokens in first-seen order, and
  * every profile's distinct token ids in profile order, each profile's in
  * first-appearance order. The Neighbor List is sorted from
  * it, and it holds the one block builder of the equality-based methods:
  * Token Blocking keys every profile by its tokens, each SA-PSAB layer by
  * their suffixes of one length — at most one key per token.
  *
  * @param tokens   the distinct tokens, in first-seen order
  * @param start    the token ids of profile p are `tokenIds(start(p) until start(p + 1))`
  * @param tokenIds every profile's token ids, one placement each
  */
final class TokenIndex private (
    pc: ProfileCollection,
    val tokens: Array[String],
    private[repro] val start: Array[Int],
    private[repro] val tokenIds: Array[Int]) {

  /** The blocks of the key `keyOf(token)` of every profile token (none
    * where it is `None`), in key order.
    *
    * A block holds the ascending, distinct ids of the profiles with at least
    * one token yielding its key; blocks without an executable comparison
    * (`Block.cardinality` 0) are dropped, and the survivors are ordered by
    * key with `RankSort.strings`. `keyOf` runs once per distinct
    * token. `RankSort.group` groups the placements by key id: placements are
    * in profile order, so every block's ids come out ascending, a profile's
    * repeats adjacent.
    */
  def blocks(keyOf: String => Option[String]): BlockCollection = {
    val keys = new TokenIndex.Dictionary(tokens.length)
    // the key id of every token, -1 for none
    val tokenKey = new Array[Int](tokens.length)
    var t = 0
    while (t < tokens.length) {
      tokenKey(t) = keyOf(tokens(t)) match {
        case Some(key) => keys.id(key)
        case None      => -1
      }
      t += 1
    }
    val placementKey = new Array[Int](tokenIds.length)
    var x = 0
    while (x < tokenIds.length) { placementKey(x) = tokenKey(tokenIds(x)); x += 1 }
    val (members, blockStart) = RankSort.group(placementKey, keys.size)
    val profileOf = placementProfiles

    val survivors = mutable.ArrayBuffer.empty[Block]
    val ids = new Array[Int](pc.size)
    var k = 0
    while (k < keys.size) {
      var n = 0
      x = blockStart(k)
      while (x < blockStart(k + 1)) {
        val p = profileOf(members(x))
        if (n == 0 || ids(n - 1) != p) { ids(n) = p; n += 1 }
        x += 1
      }
      if (Block.cardinality(pc, ids, n) > 0) survivors += Block(keys(k), Arrays.copyOf(ids, n))
      k += 1
    }
    val byKey = RankSort.strings(survivors.iterator.map(_.key).toArray)
    BlockCollection(byKey.iterator.map(survivors).toVector, pc)
  }

  /** The profile of every placement, filled afresh on every call. */
  private[repro] def placementProfiles: Array[Int] = {
    val profileOf = new Array[Int](tokenIds.length)
    var p = 0
    while (p < pc.size) { Arrays.fill(profileOf, start(p), start(p + 1), p); p += 1 }
    profileOf
  }
}

object TokenIndex {

  /** Attribute values below which a range of profiles is not worth a task
    * of its own.
    */
  private val MinValues = 1L << 10

  /** Index the tokens of `pc`, tokenized in the contiguous ranges of
    * profiles of about equal attribute values that `ForkJoin.ranges` cuts.
    */
  def apply(pc: ProfileCollection): TokenIndex =
    build(pc, ForkJoin.ranges(pc.size, MinValues)(pc.profiles(_).attrs.size.toLong))

  /** The index of `pc` tokenized in the ranges of profiles `bounds`, range
    * q being `bounds(q) until bounds(q + 1)`.
    *
    * Every range interns its tokens into its own dictionary, in parallel.
    * The dictionaries are then merged in range order, each in its own
    * first-seen order and by the hashes it stored: a token new to the merge
    * in range q first occurs in range q, so the merge assigns the ids in the
    * order of the tokens' first occurrence over all profiles — the
    * sequential first-seen order, for any cut. Last, every range's
    * placements are mapped to the merged ids, in parallel.
    */
  private[repro] def build(pc: ProfileCollection, bounds: Array[Int]): TokenIndex = {
    val parts = ForkJoin.all(bounds.length - 1)(q => new Part(pc, bounds(q), bounds(q + 1)))
    val dictionary = new Dictionary(parts.iterator.map(_.dictionary.size).sum)
    val globalIds = parts.map { part =>
      val local = part.dictionary
      Array.tabulate(local.size)(t => dictionary.id(local(t), local.hash(t)))
    }
    val offset = parts.scanLeft(0)(_ + _.n)
    val start = new Array[Int](pc.size + 1)
    val tokenIds = new Array[Int](offset.last)
    ForkJoin.all(parts.length) { q =>
      val part = parts(q)
      val global = globalIds(q)
      var x = 0
      while (x < part.n) { tokenIds(offset(q) + x) = global(part.ids(x)); x += 1 }
      var p = bounds(q)
      while (p < bounds(q + 1)) { start(p + 1) = offset(q) + part.end(p - bounds(q)); p += 1 }
    }
    new TokenIndex(pc, dictionary.strings, start, tokenIds)
  }

  /** The tokens of the profiles `from until until`, in the part's own
    * dictionary: the `n` placements' ids in `ids`, and the placements
    * through each profile in `end`. A token repeated in one profile is
    * placed once: `last` marks the profile that placed each token last.
    *
    * An all-ASCII value is tokenized in place: each run of letters and
    * digits is lowercased and hashed as it is read and looked up by its
    * range, and a string is made only for a token new to the part. Any
    * other value goes through `Tokenizer.foreachToken`, since a non-ASCII
    * unit can lowercase to ASCII letters or to more than one unit.
    */
  private final class Part(pc: ProfileCollection, from: Int, until: Int) {
    val dictionary = new Dictionary(256)
    private var last = new Array[Int](256) // 1 + the profile, 0 for none
    var ids = new Array[Int](256)
    var n = 0
    val end = new Array[Int](until - from)

    private var p = from
    private def place(t: Int): Unit = {
      if (t == last.length) last = Arrays.copyOf(last, 2 * t)
      if (last(t) <= p) {
        last(t) = p + 1
        if (n == ids.length) ids = Arrays.copyOf(ids, 2 * n)
        ids(n) = t
        n += 1
      }
    }
    private val placeToken: String => Unit = tok => place(dictionary.id(tok))

    private def tokenize(v: String): Unit = {
      var k = 0
      while (k < v.length && v.charAt(k) < 0x80) k += 1
      if (k < v.length) Tokenizer.foreachToken(v)(placeToken)
      else {
        k = 0
        while (k < v.length) {
          while (k < v.length && !isAlphanumeric(v.charAt(k))) k += 1
          val first = k
          var h = 0
          while (k < v.length && isAlphanumeric(v.charAt(k))) { h = 31 * h + lower(v.charAt(k)); k += 1 }
          if (k > first) place(dictionary.id(v, first, k, h))
        }
      }
    }

    while (p < until) {
      pc.profiles(p).attrs.foreach { case (_, v) => tokenize(v) }
      end(p - from) = n
      p += 1
    }
  }

  /** An ASCII letter or digit. */
  private def isAlphanumeric(c: Char): Boolean =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

  /** An ASCII unit, lowercased. */
  private def lower(c: Char): Int = if (c >= 'A' && c <= 'Z') c + ('a' - 'A') else c

  /** Distinct strings, each with a dense id in first-seen order: an
    * open-addressing table on `String.hashCode` that keeps every slot's hash
    * beside its id, so a probe reads a string only when the hashes match,
    * and every id's hash.
    *
    * @param expected the number of strings to size the table for
    */
  private[repro] final class Dictionary(expected: Int) {
    private var hashes = new Array[Int](Integer.highestOneBit(math.max(8, expected)) * 4)
    private var slots = new Array[Int](hashes.length) // id + 1; 0 marks an empty slot
    private var keys = new Array[String](math.max(8, expected))
    private var keyHashes = new Array[Int](keys.length)
    private var d = 0

    /** The number of distinct strings. */
    def size: Int = d

    /** The string of id `k`. */
    def apply(k: Int): String = keys(k)

    /** The `hashCode` of the string of id `k`. */
    def hash(k: Int): Int = keyHashes(k)

    /** The distinct strings, in id order. */
    def strings: Array[String] = Arrays.copyOf(keys, d)

    /** The id of `s`, added if it is new. */
    def id(s: String): Int = id(s, s.hashCode)

    /** The id of `s`, whose `hashCode` is `h`, added if it is new. */
    def id(s: String, h: Int): Int = {
      val mask = slots.length - 1
      var x = slot(h, mask)
      while (slots(x) != 0 && (hashes(x) != h || keys(slots(x) - 1) != s)) x = (x + 1) & mask
      if (slots(x) != 0) slots(x) - 1 else add(x, s, h)
    }

    /** The id of `value(first until until)` lowercased, an ASCII letter and
      * digit run whose lowercase `hashCode` is `h`, added if it is new. A
      * lowercase value that is one token is kept as it is, not copied, as
      * `Tokenizer.foreachToken` keeps it.
      */
    def id(value: String, first: Int, until: Int, h: Int): Int = {
      val mask = slots.length - 1
      var x = slot(h, mask)
      while (slots(x) != 0 && (hashes(x) != h || !isLowered(keys(slots(x) - 1), value, first, until)))
        x = (x + 1) & mask
      if (slots(x) != 0) slots(x) - 1
      else if (until - first == value.length && isLowered(value, value, 0, until)) add(x, value, h)
      else {
        val token = new Array[Char](until - first)
        var k = 0
        while (k < token.length) { token(k) = lower(value.charAt(first + k)).toChar; k += 1 }
        add(x, new String(token), h)
      }
    }

    private def isLowered(key: String, value: String, first: Int, until: Int): Boolean = {
      if (key.length != until - first) return false
      var k = 0
      while (k < key.length && key.charAt(k) == lower(value.charAt(first + k))) k += 1
      k == key.length
    }

    private def add(x: Int, s: String, h: Int): Int = {
      if (d == keys.length) {
        keys = Arrays.copyOf(keys, 2 * d)
        keyHashes = Arrays.copyOf(keyHashes, 2 * d)
      }
      keys(d) = s
      keyHashes(d) = h
      d += 1
      hashes(x) = h
      slots(x) = d
      if (2 * d > slots.length) grow()
      d - 1
    }

    private def slot(h: Int, mask: Int): Int = {
      val x = h * 0x9E3779B9
      (x ^ (x >>> 16)) & mask
    }

    private def grow(): Unit = {
      val oldHashes = hashes
      val oldSlots = slots
      hashes = new Array[Int](2 * oldHashes.length)
      slots = new Array[Int](hashes.length)
      val mask = slots.length - 1
      var t = 0
      while (t < oldSlots.length) {
        if (oldSlots(t) != 0) {
          var x = slot(oldHashes(t), mask)
          while (slots(x) != 0) x = (x + 1) & mask
          hashes(x) = oldHashes(t)
          slots(x) = oldSlots(t)
        }
        t += 1
      }
    }
  }
}
