package repro.core

import repro.SparkSpec

class NeighborListSpec extends SparkSpec {

  private val nl = NeighborList.build(PaperExample.pc)

  test("size equals the number of placements") {
    assert(nl.size === Tokenizer.placements(PaperExample.pc).size)
  }

  test("keys are sorted alphabetically") {
    assert(nl.keys.toSeq === nl.keys.toSeq.sorted)
  }

  test("position index round-trips: entries(pos) == i for every pos in PI[i]") {
    for (i <- 0 until PaperExample.pc.size; pos <- nl.positionsOf(i))
      assert(nl.entries(pos) === i)
  }

  test("position index covers every position exactly once") {
    val all = (0 until PaperExample.pc.size).flatMap(nl.positionsOf(_).toSeq)
    assert(all.sorted === (0 until nl.size))
  }

  test("each profile has one placement per distinct token") {
    for (p <- PaperExample.pc.profiles)
      assert(nl.positionsOf(p.id).length === Reference.profileKeys(p).size)
  }

  test("the white run holds all six profiles in some order") {
    val whitePos = nl.keys.zipWithIndex.filter(_._1 == "white").map(_._2)
    assert(whitePos.map(nl.entries(_)).toSet === Set(0, 1, 2, 3, 4, 5))
  }

  test("a run of equal keys occupies consecutive positions") {
    val whitePos = nl.keys.zipWithIndex.filter(_._1 == "white").map(_._2)
    assert(whitePos.max - whitePos.min === whitePos.length - 1)
  }

  test("builds are deterministic") {
    val a = NeighborList.build(PaperExample.pc)
    val b = NeighborList.build(PaperExample.pc)
    assert(a.entries.toSeq === b.entries.toSeq)
    assert(a.keys.toSeq === b.keys.toSeq)
  }

  test("fromPlacements with one key per profile (PSN layout) has |P| entries") {
    val single = NeighborList.fromPlacements(
      PaperExample.pc.profiles.map(p => (s"key${p.id % 2}", p.id)), PaperExample.pc.size)
    assert(single.size === PaperExample.pc.size)
    for (i <- 0 until PaperExample.pc.size) assert(single.positionsOf(i).length === 1)
  }

  test("a profile with no tokens has no positions") {
    val pc = ProfileCollection(
      Vector(Profile(0, 0, Vector("a" -> "x y")), Profile(1, 0, Vector("a" -> ""))),
      DirtyEr)
    val n = NeighborList.build(pc)
    assert(n.positionsOf(1).isEmpty)
    assert(n.size === 2)
  }
}
