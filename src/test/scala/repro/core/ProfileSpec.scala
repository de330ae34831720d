package repro.core

import repro.SparkSpec

class ProfileSpec extends SparkSpec {

  private val dirty = PaperExample.pc

  private val cc = ProfileCollection(
    Vector(
      Profile(0, 1, Vector("a" -> "x")),
      Profile(1, 1, Vector("a" -> "y")),
      Profile(2, 2, Vector("a" -> "x")),
      Profile(3, 2, Vector("a" -> "z"))),
    CleanCleanEr)

  test("profile ids must be dense") {
    assertThrows[IllegalArgumentException] {
      ProfileCollection(Vector(Profile(1, 0, Vector())), DirtyEr)
    }
  }

  test("text concatenates attribute values") {
    assert(Profile(0, 0, Vector("a" -> "x", "b" -> "y")).text === "x y")
  }

  test("Dirty ER: any two distinct profiles are a valid pair") {
    assert(dirty.validPair(0, 5))
    assert(dirty.validPair(5, 0))
  }

  test("Dirty ER: a profile with itself is invalid") {
    assert(!dirty.validPair(3, 3))
  }

  test("Clean-clean ER: same-source pairs are invalid") {
    assert(!cc.validPair(0, 1))
    assert(!cc.validPair(2, 3))
  }

  test("Clean-clean ER: cross-source pairs are valid") {
    assert(cc.validPair(0, 2))
    assert(cc.validPair(3, 1))
  }

  test("source1Ids is all ids for Dirty ER") {
    assert(dirty.source1Ids === (0 until 6).toVector)
  }

  test("source1Ids is the source-1 side for Clean-clean ER") {
    assert(cc.source1Ids === Vector(0, 1))
  }

  test("GroundTruth.fromClusters expands to the transitive closure") {
    val gt = GroundTruth.fromClusters(Seq(Seq(0, 1, 2), Seq(3, 4)))
    assert(gt.pairs === Set((0, 1), (0, 2), (1, 2), (3, 4)))
    assert(gt.size === 4)
  }

  test("GroundTruth.fromPairs canonicalizes pair order") {
    val gt = GroundTruth.fromPairs(Seq((5, 2), (1, 3)))
    assert(gt.pairs === Set((2, 5), (1, 3)))
  }

  test("isMatch is symmetric") {
    val gt = PaperExample.gt
    assert(gt.isMatch(0, 2) && gt.isMatch(2, 0))
    assert(!gt.isMatch(0, 3) && !gt.isMatch(3, 0))
  }

  test("non-canonical GroundTruth construction is rejected") {
    assertThrows[IllegalArgumentException] { GroundTruth(Set((3, 1))) }
  }

  test("Comparison requires canonical order") {
    assertThrows[IllegalArgumentException] { Comparison(2, 1, 0.0) }
  }

  test("Comparison.of canonicalizes") {
    assert(Comparison.of(4, 1, 0.5) === Comparison(1, 4, 0.5))
  }

  test("byDescendingWeight sorts by weight, ties by (i, j)") {
    val cs = Seq(Comparison(0, 2, 0.5), Comparison(0, 1, 0.9), Comparison(1, 2, 0.5))
    assert(cs.sorted(BoxedReference.byDescendingWeight) ===
      Seq(Comparison(0, 1, 0.9), Comparison(0, 2, 0.5), Comparison(1, 2, 0.5)))
  }
}
