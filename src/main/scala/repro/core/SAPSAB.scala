package repro.core

import repro.blocking.{Block, Blocks}

/** Schema-Agnostic Progressive Suffix Arrays Blocking (Sec. 4.2) — naïve #2.
  *
  * Every attribute value token of every profile contributes all its suffixes
  * with at least `lMin` characters as blocking keys. The blocks follow the
  * suffix forest: longer suffixes are lower in a tree ("leaf blocks"), the
  * shortest allowed suffixes are the roots. Processing is leaves-first,
  * roots-last: blocks are ordered by non-increasing suffix length, ties by
  * non-decreasing cardinality (smallest nodes first). Within a block, all
  * valid pairs are emitted; repeated comparisons across blocks are NOT
  * detected (naïve method).
  *
  * `lMin` is the method's only configuration parameter.
  */
final class SAPSAB(pc: ProfileCollection, lMin: Int = 4) extends ProgressiveMethod {
  val name = "SA-PSAB"

  /** One node of the suffix forest: the suffix and the profiles it indexes. */
  final case class SuffixBlock(suffix: String, profiles: Array[Int]) {
    def cardinality: Long = Block.cardinality(pc, profiles, profiles.length)
  }

  /** All suffix blocks with at least one executable comparison, in processing
    * order (leaves of the lowest layer first): the key-ordered suffix blocks,
    * stable-sorted by (non-increasing length, non-decreasing cardinality).
    */
  lazy val orderedBlocks: Vector[SuffixBlock] = {
    val blocks = Blocks.fromTokens(pc)(SAPSAB.suffixes(_, lMin)).blocks
    val length = blocks.iterator.map(_.key.length).toArray
    val card = blocks.iterator.map(_.cardinality(pc)).toArray
    val order = Array.range(0, blocks.size).sorted(new Ordering[Int] {
      def compare(a: Int, b: Int): Int = {
        val c = Integer.compare(length(b), length(a))
        if (c != 0) c else java.lang.Long.compare(card(a), card(b))
      }
    })
    order.iterator.map(k => SuffixBlock(blocks(k).key, blocks(k).profiles)).toVector
  }

  def emissions: Iterator[Comparison] =
    orderedBlocks.iterator.flatMap { b =>
      Block.pairs(pc, b.profiles).map { case (i, j) => Comparison.of(i, j) }
    }
}

object SAPSAB {

  /** All suffixes of `token` with at least `lMin` characters (the token
    * itself included). A token shorter than `lMin` yields nothing.
    */
  def suffixes(token: String, lMin: Int): Seq[String] =
    (0 to token.length - lMin).map(token.substring)
}
