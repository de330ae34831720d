package repro.core

/** Schema-Agnostic Progressive Sorted Neighborhood (Sec. 4.1) — naïve #1.
  *
  * PSN's incrementally-widened sliding window applied to the schema-agnostic
  * Neighbor List (Fig. 4b). Parameter-free; emissions may repeat the same
  * pair (every profile has multiple placements and the method keeps no
  * memory), exactly as in the paper.
  * PSN runs this same emitter over its schema-based, single-key Neighbor
  * List.
  *
  * For Dirty ER a window pair is valid if it involves two distinct profiles;
  * for Clean-clean ER it must also span the two sources.
  */
final class SAPSN(pc: ProfileCollection, nl: NeighborList) extends ProgressiveMethod {
  val name = "SA-PSN"

  def emissions: Iterator[Comparison] = {
    val n = nl.size
    Iterator.from(1).takeWhile(_ < n).flatMap { w =>
      Iterator.range(0, n - w).flatMap { pos =>
        val a = nl.entries(pos)
        val b = nl.entries(pos + w)
        if (pc.validPair(a, b)) Iterator.single(Comparison.of(a, b)) else Iterator.empty
      }
    }
  }
}

object SAPSN {
  def apply(pc: ProfileCollection): SAPSN = new SAPSN(pc, NeighborList.build(pc))
}
