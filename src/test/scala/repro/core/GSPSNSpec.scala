package repro.core

import repro.SparkSpec

class GSPSNSpec extends SparkSpec {

  private val pc = PaperExample.pc
  private val nl = NeighborList.build(pc)
  private val gs = new GSPSN(pc, nl, wMax = 5)

  test("no repeated emissions") {
    val ps = gs.emissions.map(_.pair).toVector
    assert(ps.distinct.size === ps.size)
  }

  test("emissions are globally sorted in non-increasing weight") {
    val ws = gs.emissions.map(_.weight).toVector
    assert(ws.zip(ws.tail).forall { case (a, b) => a >= b })
  }

  test("pair set equals the union of LS-PSN windows 1..wMax") {
    val ls = new LSPSN(pc, nl)
    val union = (1 to 5).flatMap(ls.windowComparisons(_).map(_.pair)).toSet
    assert(gs.emissions.map(_.pair).toSet === union)
  }

  test("weights are positive and follow the range-normalized RCF formula") {
    // recompute: freq over windows 1..5, weight = f / (5·(l_i+l_j) − f)
    val freq = scala.collection.mutable.HashMap.empty[(Int, Int), Int]
    for (w <- 1 to 5; pos <- 0 until nl.size - w) {
      val a = nl.entries(pos); val b = nl.entries(pos + w)
      if (pc.validPair(a, b)) {
        val k = if (a < b) (a, b) else (b, a)
        freq.update(k, freq.getOrElse(k, 0) + 1)
      }
    }
    for (c <- gs.globalComparisons()) {
      assert(c.weight > 0.0)
      val f = freq(c.pair)
      val li = nl.positionsOf(c.i).length
      val lj = nl.positionsOf(c.j).length
      assert(math.abs(c.weight - f.toDouble / (5L * (li + lj) - f)) < 1e-12, c.pair)
    }
  }

  test("with wMax = |NL| the stream covers every co-occurring pair") {
    val full = new GSPSN(pc, nl, wMax = nl.size)
    val sapsn = new SAPSN(pc, nl).emissions.map(_.pair).toSet
    assert(full.emissions.map(_.pair).toSet === sapsn)
  }

  test("matching pairs are emitted first on the fixture") {
    val first3 = gs.emissions.take(3).map(_.pair).toSet
    assert(first3.count(PaperExample.gt.pairs.contains) >= 2)
  }

  test("wMax below 1 is rejected at construction") {
    // wMax < 0 made the scan allocate a negative-size array; wMax = 0 emitted nothing
    for (wMax <- Seq(0, -1, Int.MinValue))
      intercept[IllegalArgumentException](new GSPSN(pc, nl, wMax))
  }

  test("effectiveWMax honors the comparison budget") {
    val capped = new GSPSN(pc, nl, wMax = 10, maxComparisons = 3L * nl.size)
    assert(capped.effectiveWMax === 3)
    val uncapped = new GSPSN(pc, nl, wMax = 10)
    assert(uncapped.effectiveWMax === 10)
  }

  test("a tiny budget still allows one window") {
    val capped = new GSPSN(pc, nl, wMax = 10, maxComparisons = 1)
    assert(capped.effectiveWMax === 1)
    assert(capped.emissions.nonEmpty)
  }

  test("budget-capped stream is a subset of the uncapped one") {
    val capped = new GSPSN(pc, nl, wMax = 5, maxComparisons = 2L * nl.size)
    val cappedPairs = capped.emissions.map(_.pair).toSet
    val fullPairs = gs.emissions.map(_.pair).toSet
    assert(cappedPairs.subsetOf(fullPairs))
  }
}
