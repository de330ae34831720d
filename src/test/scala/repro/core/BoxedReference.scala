package repro.core

import repro.blocking.{Block, BlockCollection, ProfileIndex}
import scala.collection.mutable

/** The equality-based layer as it was before the primitive block builder,
  * CSR filtering and the neighbourhood kernel: boxed collections, kept as the
  * references the properties compare the program against.
  */
object BoxedReference {

  /** The descending-weight order with (i, j) tie-break that the weighted
    * methods emit in, as a tuple ordering: weights compare negated in
    * `java.lang.Double.compare` order, so every NaN comes last and 0.0
    * before -0.0.
    */
  val byDescendingWeight: Ordering[Comparison] =
    Ordering.by((c: Comparison) => (-c.weight, c.i, c.j))

  /** The sort-based rank the hash dictionary of `RankSort.rank` replaced:
    * the first `n` doubles ranked in `java.lang.Double.compare` order.
    */
  def rank(xs: Array[Double], n: Int): (Array[Int], Array[Double]) = {
    val distinct = java.util.Arrays.copyOf(xs, n)
    java.util.Arrays.parallelSort(distinct)
    var d = 0
    var k = 0
    while (k < n) {
      if (d == 0 || java.lang.Double.compare(distinct(d - 1), distinct(k)) != 0) {
        distinct(d) = distinct(k)
        d += 1
      }
      k += 1
    }
    val ranks = new Array[Int](n)
    k = 0
    while (k < n) { ranks(k) = java.util.Arrays.binarySearch(distinct, 0, d, xs(k)); k += 1 }
    (ranks, java.util.Arrays.copyOf(distinct, d))
  }

  private val NonAlphanumeric = java.util.regex.Pattern.compile("[^a-z0-9]+")

  /** The regex split the char-run tokenizer replaced. */
  def tokens(value: String): Seq[String] =
    NonAlphanumeric.split(value.toLowerCase).iterator.filter(_.nonEmpty).toSeq

  def profileKeys(p: Profile): Vector[String] = {
    val seen = new mutable.LinkedHashSet[String]
    p.attrs.foreach { case (_, v) => tokens(v).foreach(seen += _) }
    seen.toVector
  }

  def cardinality(pc: ProfileCollection, ids: Array[Int]): Long = pc.erType match {
    case DirtyEr =>
      ids.length.toLong * (ids.length - 1) / 2
    case CleanCleanEr =>
      val n1 = ids.count(pc.source(_) == 1).toLong
      n1 * (ids.length - n1)
  }

  private def index(pc: ProfileCollection, keysOf: String => Seq[String]): Vector[(String, Array[Int])] = {
    val index = mutable.HashMap.empty[String, mutable.TreeSet[Int]]
    for (p <- pc.profiles; tok <- profileKeys(p); key <- keysOf(tok))
      index.getOrElseUpdate(key, mutable.TreeSet.empty[Int]) += p.id
    index.iterator.map { case (k, ids) => (k, ids.toArray) }.filter(b => cardinality(pc, b._2) > 0).toVector
  }

  /** Token Blocking: the blocks in key order. */
  def tokenBlocks(pc: ProfileCollection): Vector[Block] =
    index(pc, Seq(_)).map { case (k, ids) => Block(k, ids) }.sortBy(_.key)

  /** SA-PSAB's suffix blocks in processing order, as (suffix, profiles). */
  def suffixBlocks(pc: ProfileCollection, lMin: Int): Vector[(String, Array[Int])] =
    index(pc, Reference.suffixes(_, lMin)).sortBy { case (s, ids) => (-s.length, cardinality(pc, ids), s) }

  def filter(bc: BlockCollection, ratio: Double): Vector[Block] = {
    val pc = bc.pc
    val order = bc.blocks.indices.sortBy(k => (cardinality(pc, bc.blocks(k).profiles), bc.blocks(k).key))
    val perProfile = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    for (bi <- order; p <- bc.blocks(bi).profiles)
      perProfile.getOrElseUpdate(p, mutable.ArrayBuffer.empty[Int]) += bi
    val retained = Array.fill(bc.blocks.size)(mutable.TreeSet.empty[Int])
    for ((p, bis) <- perProfile)
      bis.take(math.max(1, math.ceil(ratio * bis.size).toInt)).foreach(bi => retained(bi) += p)
    bc.blocks.indices
      .map(bi => Block(bc.blocks(bi).key, retained(bi).toArray))
      .filter(b => cardinality(pc, b.profiles) > 0)
      .toVector
  }

  /** The Profile Index as (blocks in processing order, their cardinalities,
    * every profile's ascending block ids).
    */
  def profileIndex(bc: BlockCollection): (Vector[Block], Seq[Long], Seq[Seq[Int]]) = {
    val pc = bc.pc
    val ordered = bc.blocks.sortBy(b => (cardinality(pc, b.profiles), b.key))
    val ids = Array.fill(pc.size)(mutable.ArrayBuffer.empty[Int])
    for ((b, bi) <- ordered.zipWithIndex; p <- b.profiles) ids(p) += bi
    (ordered, ordered.map(b => cardinality(pc, b.profiles)), ids.map(_.toSeq).toSeq)
  }

  /** The ARCS-weighted neighborhood of `i`, in first-touch order: ascending
    * block id, then ascending profile id.
    */
  def neighborhood(pc: ProfileCollection, pi: ProfileIndex, i: Int): mutable.LinkedHashMap[Int, Double] = {
    val acc = mutable.LinkedHashMap.empty[Int, Double]
    for (bk <- pi.blocksOf(i); j <- pi.orderedBlocks(bk).profiles)
      if (j != i && pc.validPair(i, j))
        acc.update(j, acc.getOrElse(j, 0.0) + 1.0 / pi.cardinalities(bk))
    acc
  }

  /** PPS with boxed neighborhoods; every likelihood sums its node's weights
    * in first-touch order.
    */
  def pps(pc: ProfileCollection, pi: ProfileIndex, kMax: Int): (PPS.Init, Vector[Comparison]) = {
    val top = mutable.LinkedHashMap.empty[(Int, Int), Comparison]
    val likelihood = mutable.ArrayBuffer.empty[(Int, Double)]
    val topNeighbor = Array.fill(pc.size)(-1)
    for (i <- 0 until pc.size) {
      val nbrs = neighborhood(pc, pi, i)
      if (nbrs.nonEmpty) {
        var sum = 0.0
        for ((_, w) <- nbrs) sum += w
        likelihood += ((i, sum / nbrs.size))
        val best = nbrs.map { case (j, w) => Comparison.of(i, j, w) }.min(byDescendingWeight)
        if (!top.contains(best.pair)) top.update(best.pair, best)
        topNeighbor(i) = if (best.i == i) best.j else best.i
      }
    }
    val init = PPS.Init(
      top.values.toVector.sorted(byDescendingWeight),
      likelihood.sortBy { case (id, dl) => (-dl, id) }.map(_._1).toVector)(topNeighbor)
    val emittedAtInit = init.topComparisons.map(_.pair).toSet
    val checked = mutable.HashSet.empty[Int]
    val stream = init.topComparisons ++ init.sortedProfileList.flatMap { i =>
      checked += i
      neighborhood(pc, pi, i).toVector
        .collect { case (j, w) if !checked.contains(j) => Comparison.of(i, j, w) }
        .filterNot(c => emittedAtInit.contains(c.pair))
        .sorted(byDescendingWeight)
        .take(kMax)
    }
    (init, stream)
  }

  /** The token index as it was built before ranges: one dictionary, the
    * profiles in order, each by `Reference.profileKeys`.
    *
    * @return the distinct tokens in first-seen order, every profile's start
    *         and the placements' token ids
    */
  def tokenIndex(pc: ProfileCollection): (Vector[String], Vector[Int], Vector[Int]) = {
    val ids = mutable.LinkedHashMap.empty[String, Int]
    val start = Vector.newBuilder[Int] += 0
    val tokenIds = Vector.newBuilder[Int]
    var placed = 0
    for (p <- pc.profiles) {
      for (tok <- Reference.profileKeys(p)) { tokenIds += ids.getOrElseUpdate(tok, ids.size); placed += 1 }
      start += placed
    }
    (ids.keys.toVector, start.result(), tokenIds.result())
  }
}
