package repro.core

import repro.SparkSpec

class LSPSNSpec extends SparkSpec {

  private val pc = PaperExample.pc
  private val nl = NeighborList.build(pc)
  private val ls = new LSPSN(pc, nl)

  /** Brute-force reference: co-occurrence frequency of every valid pair at
    * exactly distance w in the Neighbor List.
    */
  private def bruteFrequencies(w: Int): Map[(Int, Int), Int] = {
    val acc = scala.collection.mutable.HashMap.empty[(Int, Int), Int]
    for (pos <- 0 until nl.size - w) {
      val a = nl.entries(pos); val b = nl.entries(pos + w)
      if (pc.validPair(a, b)) {
        val k = if (a < b) (a, b) else (b, a)
        acc.update(k, acc.getOrElse(k, 0) + 1)
      }
    }
    acc.toMap
  }

  test("window comparisons cover exactly the pairs co-occurring at distance w") {
    for (w <- 1 to 5) {
      val got = ls.windowComparisons(w).map(_.pair).toSet
      assert(got === bruteFrequencies(w).keySet, s"window $w")
    }
  }

  test("RCF weights match freq/(|PI_i|+|PI_j|-freq)") {
    for (w <- 1 to 3; c <- ls.windowComparisons(w)) {
      val f = bruteFrequencies(w)(c.pair)
      val li = nl.positionsOf(c.i).length
      val lj = nl.positionsOf(c.j).length
      assert(math.abs(c.weight - f.toDouble / (li + lj - f)) < 1e-12, s"w=$w pair=${c.pair}")
    }
  }

  test("window comparisons are sorted in non-increasing weight") {
    for (w <- 1 to 5) {
      val ws = ls.windowComparisons(w).map(_.weight)
      assert(ws.zip(ws.tail).forall { case (a, b) => a >= b }, s"window $w")
    }
  }

  test("each pair appears at most once per window") {
    for (w <- 1 to 5) {
      val ps = ls.windowComparisons(w).map(_.pair)
      assert(ps.distinct.size === ps.size, s"window $w")
    }
  }

  test("emission stream concatenates windows in order") {
    val w1 = ls.windowComparisons(1)
    val w2 = ls.windowComparisons(2)
    assert(ls.emissions.take(w1.size + w2.size).toVector === w1 ++ w2)
  }

  test("matching pairs rank at the top of their window (fixture)") {
    // duplicates share several rare adjacent tokens → highest RCF at w=1
    val top = ls.windowComparisons(1).take(3).map(_.pair).toSet
    assert(top.exists(PaperExample.gt.pairs.contains))
  }

  test("same eventual quality: the union over windows covers all SA-PSN pairs") {
    val sapsnPairs = new SAPSN(pc, nl).emissions.map(_.pair).toSet
    val lsPairs = (1 until nl.size).flatMap(ls.windowComparisons(_).map(_.pair)).toSet
    assert(lsPairs === sapsnPairs)
  }

  test("Clean-clean ER scanning emits only cross-source pairs once per window") {
    val cc = ProfileCollection(
      Vector(
        Profile(0, 1, Vector("a" -> "x y")),
        Profile(1, 1, Vector("a" -> "x z")),
        Profile(2, 2, Vector("a" -> "y z x"))),
      CleanCleanEr)
    val m = new LSPSN(cc, NeighborList.build(cc))
    for (w <- 1 to 4) {
      val ps = m.windowComparisons(w).map(_.pair)
      assert(ps.distinct.size === ps.size)
      ps.foreach { case (i, j) => assert(cc.source(i) != cc.source(j)) }
    }
  }
}
