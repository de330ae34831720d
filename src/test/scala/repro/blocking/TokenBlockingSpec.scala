package repro.blocking

import repro.SparkSpec
import repro.core._

class TokenBlockingSpec extends SparkSpec {

  private val bc = TokenBlocking.build(PaperExample.pc)
  private def blockMap = bc.blocks.map(b => b.key -> b.profiles.toSet).toMap

  test("fixture produces exactly the expected blocks") {
    assert(blockMap === PaperExample.expectedBlocks)
  }

  test("singleton tokens produce no block") {
    assert(!blockMap.contains("john"))
    assert(!blockMap.contains("green"))
    assert(!blockMap.contains("town"))
  }

  test("block profiles are ascending and distinct") {
    for (b <- bc.blocks) {
      assert(b.profiles.toSeq === b.profiles.toSeq.sorted)
      assert(b.profiles.toSeq.distinct === b.profiles.toSeq)
    }
  }

  test("Dirty ER cardinality is n(n-1)/2") {
    val white = bc.blocks.find(_.key == "white").get
    assert(white.cardinality(PaperExample.pc) === 15L)
    val smith = bc.blocks.find(_.key == "smith").get
    assert(smith.cardinality(PaperExample.pc) === 3L)
  }

  test("aggregate cardinality sums block cardinalities") {
    // ellen 1 + smith 3 + tailor 3 + carl 1 + brown 1 + baker 1 + white 15
    assert(bc.aggregateCardinality === 25L)
  }

  test("mean block size of the fixture") {
    // (2 + 3 + 3 + 2 + 2 + 2 + 6) / 7
    assert(math.abs(Reference.meanBlockSize(bc) - 20.0 / 7) < 1e-12)
  }

  test("Clean-clean ER: single-source blocks are dropped") {
    val pc = ProfileCollection(
      Vector(
        Profile(0, 1, Vector("a" -> "x shared")),
        Profile(1, 1, Vector("a" -> "x only")),
        Profile(2, 2, Vector("a" -> "shared z"))),
      CleanCleanEr)
    val blocks = TokenBlocking.build(pc).blocks.map(_.key)
    assert(blocks === Vector("shared")) // "x" is source-1-only → 0 comparisons
  }

  test("Clean-clean ER cardinality is |b∩P1|·|b∩P2|") {
    val pc = ProfileCollection(
      Vector(
        Profile(0, 1, Vector("a" -> "t")),
        Profile(1, 1, Vector("a" -> "t")),
        Profile(2, 2, Vector("a" -> "t")),
        Profile(3, 2, Vector("a" -> "t")),
        Profile(4, 2, Vector("a" -> "t"))),
      CleanCleanEr)
    val b = TokenBlocking.build(pc).blocks.head
    assert(b.cardinality(pc) === 6L) // 2 × 3
  }

  test("pairs enumerates only valid comparisons") {
    val white = bc.blocks.find(_.key == "white").get
    assert(white.pairs(PaperExample.pc).size === 15)
    val pc2 = ProfileCollection(
      Vector(
        Profile(0, 1, Vector("a" -> "t")),
        Profile(1, 1, Vector("a" -> "t")),
        Profile(2, 2, Vector("a" -> "t"))),
      CleanCleanEr)
    val b2 = TokenBlocking.build(pc2).blocks.head
    assert(b2.pairs(pc2).toSet === Set((0, 2), (1, 2)))
  }

  test("blocks are returned in deterministic key order") {
    assert(bc.blocks.map(_.key) === bc.blocks.map(_.key).sorted)
  }
}
