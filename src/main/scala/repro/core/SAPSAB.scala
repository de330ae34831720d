package repro.core

import repro.blocking.{Block, TokenIndex}

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
  * The forest is built one layer (suffix length) at a time, from the longest
  * token down to `lMin`, when the stream first reaches the layer: the first
  * emission costs the layers down to the first one holding a comparison.
  *
  * `lMin` is the method's only configuration parameter, at least 1.
  */
final class SAPSAB(pc: ProfileCollection, lMin: Int = 4) extends ProgressiveMethod {
  require(lMin >= 1, s"SA-PSAB needs lMin >= 1: got $lMin")
  val name = "SA-PSAB"

  /** One node of the suffix forest: the suffix and the profiles it indexes. */
  final class SuffixBlock(val suffix: String, val profiles: Array[Int]) {
    def cardinality: Long = Block.cardinality(pc, profiles, profiles.length)
  }

  private lazy val index = TokenIndex(pc)

  /** The length of the longest token: the lowest layer of the forest. */
  private lazy val longest = index.tokens.iterator.map(_.length).maxOption.getOrElse(0)

  // layers(l): the suffix blocks of length l in processing order, once built
  private lazy val layers = new Array[Vector[SuffixBlock]](longest + 1)
  private var built = 0

  /** The number of layers built so far. */
  private[repro] def layersBuilt: Int = synchronized(built)

  /** The suffix blocks of length `l` with at least one executable
    * comparison, in non-decreasing (cardinality, suffix), built once under
    * the method's lock.
    */
  private def layer(l: Int): Vector[SuffixBlock] = synchronized {
    if (layers(l) == null) {
      val bc = index.blocks(t => if (t.length >= l) Some(t.substring(t.length - l)) else None)
      val (order, _) = bc.cardinalityOrder
      layers(l) = order.iterator.map(bc.blocks).map(b => new SuffixBlock(b.key, b.profiles)).toVector
      built += 1
    }
    layers(l)
  }

  /** Every layer's blocks, from the longest suffixes down to `lMin`. */
  private def blocks: Iterator[SuffixBlock] = Iterator.range(longest, lMin - 1, -1).flatMap(layer(_).iterator)

  /** All suffix blocks with at least one executable comparison, in processing
    * order (leaves of the lowest layer first): every layer, concatenated.
    */
  lazy val orderedBlocks: Vector[SuffixBlock] = blocks.toVector

  def emissions: Iterator[Comparison] =
    blocks.flatMap { b =>
      Block.pairs(pc, b.profiles).map { case (i, j) => Comparison.of(i, j) }
    }
}
