package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core._

class SparkNeighborListSpec extends SparkSpec {

  private val pc = PaperExample.pc
  private lazy val index = SparkEr.tokenIndex(SparkEr.profilesDF(spark, pc)).cache()
  private lazy val nlDf = SparkNeighborList.placements(spark, index).cache()
  private val nlLocal = NeighborList.build(pc)

  test("distributed placements are bit-identical to the local Neighbor List") {
    val rows = nlDf.orderBy("pos").collect()
    assert(rows.map(_.getString(1)).toSeq === nlLocal.keys.toSeq)
    assert(rows.map(_.getInt(2)).toSeq === nlLocal.entries.toSeq)
  }

  test("positions are dense 0..n-1") {
    val pos = nlDf.select("pos").collect().map(_.getLong(0)).sorted
    assert(pos.toSeq === (0L until nlLocal.size.toLong))
  }

  test("per-profile placement counts match the Position Index (oracle-checked)") {
    import org.apache.spark.sql.functions._
    val lens = nlDf.groupBy("profile_id").agg(count(lit(1)).as("len"))
    Oracle.assertEquivalent(
      lens,
      "SELECT CAST(profile_id AS INT) AS profile_id, COUNT(*) AS len FROM nl GROUP BY profile_id",
      "nl" -> nlDf)
    val got = lens.collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    for (i <- 0 until pc.size)
      assert(got.getOrElse(i, 0L) === nlLocal.positionsOf(i).length.toLong)
  }

  test("window-w RCF comparisons equal LS-PSN's windowComparisons") {
    val ls = new LSPSN(pc, nlLocal)
    for (w <- 1 to 3) {
      val got = SparkNeighborList.rcfComparisons(nlDf, w, w, cleanClean = false)
        .collect().map(r => ((r.getInt(0), r.getInt(1)), r.getDouble(3))).toMap
      val local = ls.windowComparisons(w).map(c => c.pair -> c.weight).toMap
      assert(got.keySet === local.keySet, s"window $w")
      for ((p, wt) <- got) assert(wt === local(p), s"window $w pair $p")
    }
  }

  test("range RCF comparisons equal GS-PSN's global comparisons") {
    val gs = new GSPSN(pc, nlLocal, wMax = 4)
    val got = SparkNeighborList.rcfComparisons(nlDf, 1, 4, cleanClean = false)
      .collect().map(r => ((r.getInt(0), r.getInt(1)), r.getDouble(3))).toMap
    val local = gs.globalComparisons().map(c => c.pair -> c.weight).toMap
    assert(got.keySet === local.keySet)
    for ((p, wt) <- got) assert(wt === local(p), s"pair $p")
  }

  test("gsPsnOrder is sorted by non-increasing weight") {
    val ws = SparkNeighborList.gsPsnOrder(nlDf, 4, cleanClean = false)
      .collect().map(_.getDouble(3))
    assert(ws.zip(ws.tail).forall { case (a, b) => a >= b })
  }

  test("Clean-clean RCF comparisons are cross-source only") {
    val cc = ProfileCollection(
      Vector(
        Profile(0, 1, Vector("a" -> "x y")),
        Profile(1, 1, Vector("a" -> "x z")),
        Profile(2, 2, Vector("a" -> "y z x"))),
      CleanCleanEr)
    val idx = SparkEr.tokenIndex(SparkEr.profilesDF(spark, cc))
    val nl2 = SparkNeighborList.placements(spark, idx)
    val got = SparkNeighborList.rcfComparisons(nl2, 1, 5, cleanClean = true)
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    got.foreach { case (i, j) => assert(cc.source(i) != cc.source(j)) }
    // cross-check against the local GS-PSN on the same NL seed
    val local = new GSPSN(cc, NeighborList.build(cc), wMax = 5)
      .globalComparisons().map(_.pair).toSet
    assert(got === local)
  }
}
