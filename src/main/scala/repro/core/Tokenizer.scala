package repro.core

/** Schema-agnostic blocking-key extraction (Sec. 3, "attribute value tokens").
  *
  * Every token that appears in any attribute value of a profile is a blocking
  * key for that profile — this is Token Blocking's key function and also the
  * key source of the schema-agnostic Neighbor List (Fig. 3d/3e).
  */
object Tokenizer {

  private val NonAlphanumeric = java.util.regex.Pattern.compile("[^a-z0-9]+")

  /** Lowercased alphanumeric tokens of one attribute value. */
  def tokens(value: String): Seq[String] =
    NonAlphanumeric.split(value.toLowerCase).iterator.filter(_.nonEmpty).toSeq

  /** Distinct blocking keys of a profile, in first-appearance order.
    *
    * Distinctness matters: a token repeated inside one profile is still a
    * single blocking key (one placement in the Neighbor List, one membership
    * in the token's block).
    */
  def profileKeys(p: Profile): Vector[String] = {
    val seen = new scala.collection.mutable.LinkedHashSet[String]
    p.attrs.foreach { case (_, v) => tokens(v).foreach(seen += _) }
    seen.toVector
  }

  /** (token, profileId) placements for a whole collection. */
  def placements(pc: ProfileCollection): Vector[(String, Int)] =
    pc.profiles.flatMap(p => profileKeys(p).map(t => (t, p.id)))
}
