package repro.blocking

import repro.SparkSpec
import repro.core._

class BlockingGraphSpec extends SparkSpec {

  private val pi = ProfileIndex.build(TokenBlocking.build(PaperExample.pc))
  private val edges = Reference.edges(PaperExample.pc, pi)

  test("the fixture graph has one edge per distinct co-occurring pair") {
    // all 15 pairs co-occur (everyone shares white)
    assert(edges.size === 15)
    assert(edges.map(_.pair).distinct.size === 15)
  }

  test("edge weights equal the scheme weights") {
    val m = edges.map(c => c.pair -> c.weight).toMap
    assert(math.abs(m((0, 1)) - PaperExample.arcs01) < 1e-12)
    assert(math.abs(m((3, 4)) - PaperExample.arcs34) < 1e-12)
    assert(math.abs(m((1, 5)) - PaperExample.arcsWhiteOnly) < 1e-12)
  }

  test("neighborhood returns all valid co-occurring profiles with weights") {
    val n0 = BlockingGraph.neighborhood(PaperExample.pc, pi, 0)
    assert(n0.keySet === Set(1, 2, 3, 4, 5))
    assert(math.abs(n0(1) - PaperExample.arcs01) < 1e-12)
    assert(math.abs(n0(4) - PaperExample.arcsWhiteOnly) < 1e-12)
  }

  test("neighborhood is symmetric") {
    val n2 = BlockingGraph.neighborhood(PaperExample.pc, pi, 2)
    val n5 = BlockingGraph.neighborhood(PaperExample.pc, pi, 5)
    assert(math.abs(n2(5) - n5(2)) < 1e-12)
  }

  test("Clean-clean neighborhoods exclude same-source profiles") {
    val pc = ProfileCollection(
      Vector(
        Profile(0, 1, Vector("a" -> "t u")),
        Profile(1, 1, Vector("a" -> "t")),
        Profile(2, 2, Vector("a" -> "t u"))),
      CleanCleanEr)
    val p = ProfileIndex.build(TokenBlocking.build(pc))
    val n0 = BlockingGraph.neighborhood(pc, p, 0)
    assert(n0.keySet === Set(2))
    val es = Reference.edges(pc, p)
    assert(es.map(_.pair).toSet === Set((0, 2), (1, 2)))
  }
}
