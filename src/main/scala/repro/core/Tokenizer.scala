package repro.core

import java.util.Locale

/** Schema-agnostic blocking-key extraction (Sec. 3, "attribute value tokens").
  *
  * Every token that appears in any attribute value of a profile is a blocking
  * key for that profile — this is Token Blocking's key function and also the
  * key source of the schema-agnostic Neighbor List (Fig. 3d/3e).
  */
object Tokenizer {

  /** Lowercased alphanumeric tokens of one attribute value: the maximal runs
    * of `[a-z0-9]` in `value.toLowerCase(Locale.ROOT)`, so the tokens do not
    * depend on the JVM's default locale.
    */
  def tokens(value: String): Seq[String] = {
    val out = Vector.newBuilder[String]
    foreachToken(value)(out += _)
    out.result()
  }

  private def foreachToken(value: String)(f: String => Unit): Unit = {
    val s = value.toLowerCase(Locale.ROOT)
    var start = -1
    var k = 0
    while (k < s.length) {
      val c = s.charAt(k)
      if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
        if (start < 0) start = k
      } else if (start >= 0) {
        f(s.substring(start, k))
        start = -1
      }
      k += 1
    }
    if (start >= 0) f(s.substring(start))
  }

  /** Distinct blocking keys of a profile, in first-appearance order.
    *
    * Distinctness matters: a token repeated inside one profile is still a
    * single blocking key (one placement in the Neighbor List, one membership
    * in the token's block).
    */
  def profileKeys(p: Profile): Vector[String] = {
    val seen = new java.util.HashSet[String]
    val out = Vector.newBuilder[String]
    p.attrs.foreach { case (_, v) => foreachToken(v)(t => if (seen.add(t)) out += t) }
    out.result()
  }

  /** (token, profileId) placements for a whole collection. */
  def placements(pc: ProfileCollection): Vector[(String, Int)] =
    pc.profiles.flatMap(p => profileKeys(p).map(t => (t, p.id)))
}
