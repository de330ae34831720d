package repro.core

/** Schema-based Progressive Sorted Neighborhood (Sec. 2) — the paper's
  * state-of-the-art baseline.
  *
  * Every profile gets ONE schema-based blocking key (crafted per dataset by
  * a domain expert, e.g. soundex(surname)+initials+zip for census); profiles
  * are sorted by key, and comparisons are emitted by a sliding window of
  * iteratively incremented size over the sorted list of profiles — SA-PSN's
  * window run over a Neighbor List with one placement per profile.
  *
  * Applicable only when such a key exists — i.e. to the structured datasets;
  * this mirrors the paper, which has no PSN numbers for the heterogeneous
  * Clean-clean datasets.
  */
final class PSN(pc: ProfileCollection, key: Profile => String) extends ProgressiveMethod {
  val name = "PSN"

  /** The schema-based Neighbor List: one placement per profile. */
  val neighborList: NeighborList =
    NeighborList.fromPlacements(pc.profiles.map(p => (key(p), p.id)), pc.size)

  def emissions: Iterator[Comparison] = new SAPSN(pc, neighborList).emissions
}

/** American Soundex — used to build the expert blocking keys of the census
  * baseline (paper footnote 6: "Soundex encoded surnames concatenated to
  * initials and zipcodes").
  */
object Soundex {
  private val codes: Map[Char, Char] = Map(
    'b' -> '1', 'f' -> '1', 'p' -> '1', 'v' -> '1',
    'c' -> '2', 'g' -> '2', 'j' -> '2', 'k' -> '2', 'q' -> '2', 's' -> '2',
    'x' -> '2', 'z' -> '2',
    'd' -> '3', 't' -> '3',
    'l' -> '4',
    'm' -> '5', 'n' -> '5',
    'r' -> '6')

  def encode(word: String): String = {
    val w = word.toLowerCase.filter(_.isLetter)
    if (w.isEmpty) return "0000"
    val head = w.head.toUpper
    val sb = new StringBuilder
    sb += head
    var prev = codes.getOrElse(w.head, '0')
    for (c <- w.tail if sb.length < 4) {
      val code = codes.getOrElse(c, '0')
      // h/w are transparent: they do not reset the previous code
      if (c != 'h' && c != 'w') {
        if (code != '0' && code != prev) sb += code
        prev = code
      }
    }
    sb.append("000").substring(0, 4)
  }
}
