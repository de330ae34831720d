package repro.blocking

/** ARCS (Sec. 3.2), the Meta-blocking weighting scheme of PBS and PPS: the
  * weight of edge (i, j) of the Blocking Graph is Σ 1/||b_k|| over the blocks
  * the two profiles share, so smaller (more distinctive) shared blocks weigh
  * more. The Profile Index merge, the neighbourhood kernel and the Spark
  * edge weighting all add these terms in ascending block id.
  */
object Arcs {

  /** The ARCS term of one shared block of cardinality `card`: 1/||b||. */
  def term(card: Long): Double = 1.0 / card
}
