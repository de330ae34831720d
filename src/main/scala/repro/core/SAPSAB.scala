package repro.core

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
    def cardinality: Long = SAPSAB.cardinality(pc, profiles)
  }

  /** All suffix blocks with at least one executable comparison, in processing
    * order (leaves of the lowest layer first).
    */
  lazy val orderedBlocks: Vector[SuffixBlock] = {
    val index = scala.collection.mutable.HashMap.empty[String, scala.collection.mutable.TreeSet[Int]]
    for (p <- pc.profiles; tok <- Tokenizer.profileKeys(p); suf <- SAPSAB.suffixes(tok, lMin))
      index.getOrElseUpdate(suf, scala.collection.mutable.TreeSet.empty[Int]) += p.id
    val blocks = index.iterator
      .map { case (s, ids) => SuffixBlock(s, ids.toArray) }
      .filter(b => b.cardinality > 0)
      .toVector
    // sort keys computed once: a Clean-clean cardinality counts the block
    val keys = blocks.map(b => (-b.suffix.length, b.cardinality, b.suffix))
    blocks.indices.sortBy(keys).map(blocks).toVector
  }

  def emissions: Iterator[Comparison] =
    orderedBlocks.iterator.flatMap { b =>
      val ids = b.profiles
      Iterator.range(0, ids.length).flatMap { x =>
        Iterator.range(x + 1, ids.length).flatMap { y =>
          if (pc.validPair(ids(x), ids(y))) Iterator.single(Comparison.of(ids(x), ids(y)))
          else Iterator.empty
        }
      }
    }
}

object SAPSAB {

  /** All suffixes of `token` with at least `lMin` characters (the token
    * itself included). A token shorter than `lMin` yields nothing.
    */
  def suffixes(token: String, lMin: Int): Seq[String] =
    (0 to token.length - lMin).map(token.substring)

  /** Executable comparisons of a profile-id set under the collection's ER
    * type: n(n-1)/2 for Dirty, |b∩P1|·|b∩P2| for Clean-clean.
    */
  def cardinality(pc: ProfileCollection, ids: Array[Int]): Long = pc.erType match {
    case DirtyEr =>
      ids.length.toLong * (ids.length - 1) / 2
    case CleanCleanEr =>
      val n1 = ids.count(pc.source(_) == 1).toLong
      n1 * (ids.length - n1)
  }
}
