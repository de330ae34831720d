package repro.core

import repro.blocking.{Arcs, BlockCollection, BlockingGraph, ProfileIndex, TokenIndex}
import repro.data.{Datasets, HeterogeneousData}
import repro.eval.ErDataset

/** Operations that no program path runs, kept in test scope as references
  * the suites check the program against: the two-merge Profile Index
  * operations and the Meta-blocking schemes PBS's one merge
  * (`ProfileIndex.arcsIfLeast`) replaced, the materialized Blocking Graph,
  * the suffix and key enumerators of one token and one profile, and the
  * cuts of the range-parallel builds into a given number of ranges.
  */
object Reference {

  /** Σ f(||b||) over the blocks shared by `i` and `j`: one linear merge of
    * B_i and B_j, in ascending block id.
    */
  def sumOverCommonBlocks(pi: ProfileIndex, i: Int, j: Int)(f: Long => Double): Double = {
    val a = pi.blocksOf(i); val b = pi.blocksOf(j)
    var x = 0; var y = 0; var s = 0.0
    while (x < a.length && y < b.length) {
      if (a(x) == b(y)) { s += f(pi.cardinalities(a(x))); x += 1; y += 1 }
      else if (a(x) < b(y)) x += 1
      else y += 1
    }
    s
  }

  /** Least Common Block Index: the smallest block id shared by `i` and `j`,
    * or -1 when they share no block. A comparison met in block `y` is new iff
    * `lecobi(pi, i, j) == y` (Sec. 5.2.1).
    */
  def lecobi(pi: ProfileIndex, i: Int, j: Int): Int = {
    val a = pi.blocksOf(i); val b = pi.blocksOf(j)
    var x = 0; var y = 0
    while (x < a.length && y < b.length) {
      if (a(x) == b(y)) return a(x)
      else if (a(x) < b(y)) x += 1
      else y += 1
    }
    -1
  }

  /** Number of blocks shared by `i` and `j`. */
  def commonBlockCount(pi: ProfileIndex, i: Int, j: Int): Int = sumOverCommonBlocks(pi, i, j)(_ => 1.0).toInt

  /** ARCS (Sec. 3.2): Σ 1/||b_k|| over the shared blocks. */
  def arcs(pi: ProfileIndex, i: Int, j: Int): Double = sumOverCommonBlocks(pi, i, j)(Arcs.term)

  /** CBS: the plain count of shared blocks. */
  def cbs(pi: ProfileIndex, i: Int, j: Int): Double = commonBlockCount(pi, i, j).toDouble

  /** The Jaccard scheme: |B_i ∩ B_j| / |B_i ∪ B_j|. */
  def js(pi: ProfileIndex, i: Int, j: Int): Double = {
    val common = commonBlockCount(pi, i, j)
    val union = pi.blocksOf(i).length + pi.blocksOf(j).length - common
    if (union <= 0) 0.0 else common.toDouble / union
  }

  /** The materialized Blocking Graph: all distinct edges with weights, in
    * deterministic order: the block edges of every block, in block id
    * order, so no duplicates.
    */
  def edges(pc: ProfileCollection, pi: ProfileIndex): Vector[Comparison] =
    Iterator.range(0, pi.orderedBlocks.size).flatMap { k =>
      val e = BlockingGraph.BlockEdges(pc, pi, k)
      Iterator.range(0, e.n).map(e.comparison)
    }.toVector

  /** All suffixes of `token` with at least `lMin` characters (the token
    * itself included). A token shorter than `lMin` yields nothing.
    */
  def suffixes(token: String, lMin: Int): Seq[String] =
    (0 to token.length - lMin).map(token.substring)

  /** Distinct blocking keys of a profile, in first-appearance order.
    *
    * Distinctness matters: a token repeated inside one profile is still a
    * single blocking key (one placement in the Neighbor List, one membership
    * in the token's block).
    */
  def profileKeys(p: Profile): Vector[String] = {
    val seen = new java.util.HashSet[String]
    val out = Vector.newBuilder[String]
    p.attrs.foreach { case (_, v) => Tokenizer.foreachToken(v)(t => if (seen.add(t)) out += t) }
    out.result()
  }

  /** Mean block size |b̄|. */
  def meanBlockSize(bc: BlockCollection): Double =
    if (bc.blocks.isEmpty) 0.0 else bc.blocks.iterator.map(_.size.toLong).sum.toDouble / bc.blocks.size

  /** The token index of `pc` tokenized in `ranges` contiguous ranges of about
    * equal attribute values, the work measure `TokenIndex(pc)` cuts by.
    */
  def tokenIndex(pc: ProfileCollection, ranges: Int): TokenIndex =
    TokenIndex.build(pc, ForkJoin.cut(pc.size, ranges)(pc.profiles(_).attrs.size.toLong))

  /** The Neighbor List of `pc`, tokenized in `ranges` ranges, as
    * `tokenIndex`, and its key runs sorted in `ranges` ranges of about equal
    * placements, the work measure `NeighborList.build` cuts by.
    */
  def neighborList(pc: ProfileCollection, ranges: Int): NeighborList = {
    val index = tokenIndex(pc, ranges)
    NeighborList.sorted(index.tokens, index.tokenIds, index.placementProfiles, pc.size, ForkJoin.cut(_, ranges)(_))
  }

  /** The four structured datasets at small scale. */
  def structuredSmall: Seq[ErDataset] = Datasets.structured(cddbScale = 0.15)

  /** The three heterogeneous datasets at small scale. */
  def heterogeneousSmall: Seq[ErDataset] = Seq(
    HeterogeneousData.movies(0.02),
    HeterogeneousData.dbpedia(0.4),
    HeterogeneousData.freebase(0.5))
}
