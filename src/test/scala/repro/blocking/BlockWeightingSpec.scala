package repro.blocking

import repro.SparkSpec
import repro.core.{PaperExample, Reference}

class BlockWeightingSpec extends SparkSpec {

  private val pi = ProfileIndex.build(TokenBlocking.build(PaperExample.pc))

  test("ARCS matches the hand-computed fixture weights") {
    assert(math.abs(Reference.arcs(pi, 0, 1) - PaperExample.arcs01) < 1e-12)
    assert(math.abs(Reference.arcs(pi, 0, 2) - PaperExample.arcs02) < 1e-12)
    assert(math.abs(Reference.arcs(pi, 1, 2) - PaperExample.arcs02) < 1e-12)
    assert(math.abs(Reference.arcs(pi, 3, 4) - PaperExample.arcs34) < 1e-12)
    assert(math.abs(Reference.arcs(pi, 0, 5) - PaperExample.arcsWhiteOnly) < 1e-12)
  }

  test("ARCS ranks the matching pairs above white-only pairs") {
    assert(Reference.arcs(pi, 3, 4) > Reference.arcs(pi, 0, 1))
    assert(Reference.arcs(pi, 0, 1) > Reference.arcs(pi, 0, 2))
    assert(Reference.arcs(pi, 0, 2) > Reference.arcs(pi, 1, 5))
  }

  test("CBS counts shared blocks") {
    assert(Reference.cbs(pi, 0, 1) === 4.0)
    assert(Reference.cbs(pi, 0, 2) === 3.0)
    assert(Reference.cbs(pi, 2, 5) === 1.0)
  }

  test("JS normalizes by the union of block lists") {
    assert(Reference.js(pi, 0, 1) === 1.0)            // identical block sets
    assert(Reference.js(pi, 0, 2) === 3.0 / 4.0)      // 3 common, union 4
    assert(math.abs(Reference.js(pi, 0, 5) - 1.0 / 4.0) < 1e-12)
  }

  test("weights of disjoint profiles are zero") {
    // profiles sharing no block → empty merge
    assert(Reference.arcs(pi, 2, 3) === PaperExample.arcsWhiteOnly) // shares white only
    val pc = repro.core.ProfileCollection(
      Vector(
        repro.core.Profile(0, 0, Vector("a" -> "x")),
        repro.core.Profile(1, 0, Vector("a" -> "x")),
        repro.core.Profile(2, 0, Vector("a" -> "y")),
        repro.core.Profile(3, 0, Vector("a" -> "y"))),
      repro.core.DirtyEr)
    val p2 = ProfileIndex.build(TokenBlocking.build(pc))
    assert(Reference.arcs(p2, 0, 2) === 0.0)
    assert(Reference.js(p2, 0, 2) === 0.0)
  }
}
