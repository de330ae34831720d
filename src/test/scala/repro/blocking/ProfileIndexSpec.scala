package repro.blocking

import repro.SparkSpec
import repro.core._

class ProfileIndexSpec extends SparkSpec {

  // full fixture blocks, no purging/filtering
  private val pi = ProfileIndex.build(TokenBlocking.build(PaperExample.pc))

  test("blocks are ordered by non-decreasing cardinality, ties by key") {
    assert(pi.orderedBlocks.map(_.key) ===
      Vector("baker", "brown", "carl", "ellen", "smith", "tailor", "white"))
    assert(pi.cardinalities.toSeq === Seq(1L, 1L, 1L, 1L, 3L, 3L, 15L))
  }

  test("blocksOf returns ascending block ids") {
    assert(pi.blocksOf(0).toSeq === Seq(3, 4, 5, 6)) // ellen smith tailor white
    assert(pi.blocksOf(3).toSeq === Seq(0, 1, 2, 6)) // baker brown carl white
    assert(pi.blocksOf(5).toSeq === Seq(6))          // white
  }

  test("LeCoBI finds the least common block id") {
    assert(Reference.lecobi(pi, 3, 4) === 0) // baker
    assert(Reference.lecobi(pi, 0, 1) === 3) // ellen
    assert(Reference.lecobi(pi, 0, 2) === 4) // smith
    assert(Reference.lecobi(pi, 0, 5) === 6) // white
  }

  test("LeCoBI is -1 for profiles sharing no block") {
    val pc = ProfileCollection(
      Vector(
        Profile(0, 0, Vector("a" -> "x x2")),
        Profile(1, 0, Vector("a" -> "x")),
        Profile(2, 0, Vector("a" -> "y")),
        Profile(3, 0, Vector("a" -> "y"))),
      DirtyEr)
    val p = ProfileIndex.build(TokenBlocking.build(pc))
    assert(Reference.lecobi(p, 0, 2) === -1)
    assert(Reference.lecobi(p, 0, 1) >= 0)
  }

  test("commonBlockCount merges the sorted lists correctly") {
    assert(Reference.commonBlockCount(pi, 0, 1) === 4) // ellen smith tailor white
    assert(Reference.commonBlockCount(pi, 0, 2) === 3) // smith tailor white
    assert(Reference.commonBlockCount(pi, 0, 3) === 1) // white
    assert(Reference.commonBlockCount(pi, 2, 5) === 1) // white
  }

  test("sumOverCommonBlocks computes ARCS") {
    assert(math.abs(Reference.sumOverCommonBlocks(pi, 0, 1)(1.0 / _) - PaperExample.arcs01) < 1e-12)
    assert(math.abs(Reference.sumOverCommonBlocks(pi, 3, 4)(1.0 / _) - PaperExample.arcs34) < 1e-12)
  }

  test("an unindexed profile has no blocks") {
    val pc = ProfileCollection(
      Vector(
        Profile(0, 0, Vector("a" -> "x")),
        Profile(1, 0, Vector("a" -> "x")),
        Profile(2, 0, Vector("a" -> "loner"))),
      DirtyEr)
    val p = ProfileIndex.build(TokenBlocking.build(pc))
    assert(p.blocksOf(2).isEmpty)
  }

  test("block ids reflect the PBS processing position") {
    for ((b, k) <- pi.orderedBlocks.zipWithIndex; p <- b.profiles)
      assert(pi.blocksOf(p).contains(k))
  }
}
