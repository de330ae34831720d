package repro.core

import repro.SparkSpec

class SAPSABSpec extends SparkSpec {

  private val pc = PaperExample.pc
  private val m = new SAPSAB(pc, lMin = 4)

  test("suffixes enumerates all suffixes of at least lMin characters") {
    assert(Reference.suffixes("tailor", 4) === Seq("tailor", "ailor", "ilor"))
    assert(Reference.suffixes("coin", 4) === Seq("coin"))
  }

  test("tokens shorter than lMin yield no suffix") {
    assert(Reference.suffixes("oin", 4) === Seq.empty)
  }

  test("lMin = 2 keeps the shortest allowed suffixes") {
    assert(Reference.suffixes("pain", 2) === Seq("pain", "ain", "in"))
  }

  test("blocks are ordered leaves-first: non-increasing suffix length") {
    val lens = m.orderedBlocks.map(_.suffix.length)
    assert(lens.zip(lens.tail).forall { case (a, b) => a >= b })
  }

  test("within a layer, blocks are ordered by non-decreasing comparisons") {
    for ((_, layer) <- m.orderedBlocks.groupBy(_.suffix.length)) {
      val cards = layer.map(_.cardinality)
      assert(cards.zip(cards.tail).forall { case (a, b) => a <= b })
    }
  }

  test("every block yields at least one comparison") {
    assert(m.orderedBlocks.forall(_.cardinality > 0))
  }

  test("the suffix blocks contain the full-token blocks") {
    val keys = m.orderedBlocks.map(_.suffix).toSet
    // full tokens shared by ≥2 profiles appear as suffix blocks
    assert(Set("ellen", "smith", "tailor", "carl", "brown", "baker", "white").subsetOf(keys))
  }

  test("suffix co-occurrence creates blocks full tokens cannot") {
    // "ailor"/"ilor" blocks exist alongside "tailor"
    val keys = m.orderedBlocks.map(_.suffix).toSet
    assert(keys.contains("ailor") && keys.contains("ilor"))
  }

  test("emissions are valid, canonical pairs") {
    m.emissions.take(500).foreach { c =>
      assert(c.i < c.j)
      assert(pc.validPair(c.i, c.j))
    }
  }

  test("repeated comparisons are allowed (naïve method)") {
    val all = m.emissions.toVector
    assert(all.size > all.map(_.pair).distinct.size)
  }

  test("same eventual quality: covers every pair sharing a full token") {
    val tokenPairs = repro.blocking.TokenBlocking.build(pc).blocks
      .flatMap(_.pairs(pc)).toSet
    assert(tokenPairs.subsetOf(m.emissions.map(_.pair).toSet))
  }

  test("larger lMin produces fewer blocks") {
    val coarse = new SAPSAB(pc, lMin = 5)
    assert(coarse.orderedBlocks.size <= m.orderedBlocks.size)
  }

  test("lMin below 1 is rejected at construction") {
    // at 0 the empty suffix would block every profile together; below 0
    // there is no suffix of that length
    for (lMin <- Seq(0, -1, Int.MinValue))
      assertThrows[IllegalArgumentException](new SAPSAB(pc, lMin))
  }
}
