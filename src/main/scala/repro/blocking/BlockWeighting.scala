package repro.blocking

/** Meta-blocking weighting schemes over the Blocking Graph (Sec. 3.2):
  * the weight of edge (i, j) is derived exclusively from the blocks the two
  * profiles share. PBS and PPS weight with ARCS, as in the paper; CBS and JS
  * are the other schemes of the Meta-blocking literature.
  */
trait BlockWeighting {
  def name: String

  /** Edge weight of (i, j) via the Profile Index merge. */
  def weight(i: Int, j: Int, pi: ProfileIndex): Double
}

/** ARCS (Sec. 3.2): Σ 1/||b_k|| over shared blocks — smaller (more
  * distinctive) shared blocks weigh more. The scheme of PBS and PPS.
  */
object Arcs extends BlockWeighting {
  val name = "ARCS"

  /** The ARCS term of one shared block of cardinality `card`: 1/||b||. */
  def term(card: Long): Double = 1.0 / card

  def weight(i: Int, j: Int, pi: ProfileIndex): Double = pi.sumOverCommonBlocks(i, j)(term)
}

/** CBS: plain count of shared blocks. */
object Cbs extends BlockWeighting {
  val name = "CBS"
  def weight(i: Int, j: Int, pi: ProfileIndex): Double = pi.commonBlockCount(i, j).toDouble
}

/** Jaccard scheme: |B_i ∩ B_j| / |B_i ∪ B_j|. */
object JsScheme extends BlockWeighting {
  val name = "JS"
  def weight(i: Int, j: Int, pi: ProfileIndex): Double = {
    val common = pi.commonBlockCount(i, j)
    val union = pi.blocksOf(i).length + pi.blocksOf(j).length - common
    if (union <= 0) 0.0 else common.toDouble / union
  }
}
