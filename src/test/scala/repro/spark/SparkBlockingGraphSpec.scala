package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.blocking.{ProfileIndex, TokenBlocking}

class SparkBlockingGraphSpec extends SparkSpec {

  private lazy val index = SparkEr.tokenIndex(SparkEr.profilesDF(spark, PaperExample.pc)).cache()

  private lazy val (filtered, ordered) = SparkTokenBlocking.workflow(
    index, PaperExample.pc.size.toLong, cleanClean = false,
    purgeFraction = 1.0, filterRatio = 1.0)

  private lazy val edges = SparkBlockingGraph.arcsEdges(filtered, ordered, cleanClean = false)

  override def afterAll(): Unit = {
    filtered.unpersist(blocking = true)
    super.afterAll()
  }

  test("distributed ARCS edges equal the local Blocking Graph") {
    val local = Reference
      .edges(PaperExample.pc, ProfileIndex.build(TokenBlocking.build(PaperExample.pc)))
      .map(c => c.pair -> c.weight).toMap
    val got = edges.collect()
      .map(r => ((r.getInt(0), r.getInt(1)), r.getDouble(2))).toMap
    assert(got.keySet === local.keySet)
    for ((p, w) <- got) assert(w === local(p), s"pair $p")
  }

  test("ARCS edge weights are oracle-checked against DuckDB SQL") {
    Oracle.assertEquivalent(
      edges.select("i", "j", "weight"),
      """WITH b AS (
        |  SELECT token, COUNT(*) AS sz FROM pt GROUP BY token HAVING COUNT(*) >= 2
        |),
        |pt2 AS (
        |  SELECT CAST(pt.profile_id AS INT) AS pid, pt.token, b.sz FROM pt JOIN b USING (token)
        |)
        |SELECT a.pid AS i, c.pid AS j, SUM(2.0 / (a.sz * (a.sz - 1))) AS weight
        |FROM pt2 a JOIN pt2 c ON a.token = c.token AND a.pid < c.pid
        |GROUP BY a.pid, c.pid""".stripMargin,
      "pt" -> index)
  }

  test("lecobi column equals the local Profile Index LeCoBI") {
    val pi = ProfileIndex.build(TokenBlocking.build(PaperExample.pc))
    edges.collect().foreach { r =>
      assert(r.getAs[Number]("lecobi").intValue() === Reference.lecobi(pi, r.getInt(0), r.getInt(1)))
    }
  }

  test("pbsOrder starts with the smallest block's pair") {
    val first = SparkBlockingGraph.pbsOrder(edges).first()
    assert((first.getInt(0), first.getInt(1)) === ((3, 4)))
    assert(math.abs(first.getDouble(2) - PaperExample.arcs34) < 1e-9)
  }

  test("pbsOrder groups by lecobi and matches local PBS per-block pair sets") {
    val pc = PaperExample.pc
    val pi = ProfileIndex.build(TokenBlocking.build(pc))
    val pbs = new PBS(pc, pi)
    val rows = SparkBlockingGraph.pbsOrder(edges).collect()
    // lecobi is non-decreasing down the ordered output
    val lecobis = rows.map(_.getAs[Number]("lecobi").intValue()).toSeq
    assert(lecobis.zip(lecobis.tail).forall { case (a, b) => a <= b })
    // per-block pair sets agree with the driver-side PBS
    val sparkByBlock = rows.groupBy(_.getAs[Number]("lecobi").intValue())
      .view.mapValues(_.map(r => (r.getInt(0), r.getInt(1))).toSet).toMap
    for (k <- pi.orderedBlocks.indices) {
      val local = pbs.blockComparisons(k).map(_.pair).toSet
      assert(sparkByBlock.getOrElse(k, Set.empty) === local, s"block $k")
    }
  }

  test("Clean-clean edges only connect profiles of different sources") {
    val cc = ProfileCollection(
      Vector(
        Profile(0, 1, Vector("a" -> "t u")),
        Profile(1, 1, Vector("a" -> "t")),
        Profile(2, 2, Vector("a" -> "t u"))),
      CleanCleanEr)
    val idx = SparkEr.tokenIndex(SparkEr.profilesDF(spark, cc))
    val (f, o) = SparkTokenBlocking.workflow(idx, 3L, cleanClean = true, 1.0, 1.0)
    val es = SparkBlockingGraph.arcsEdges(f, o, cleanClean = true).collect()
    f.unpersist(blocking = true)
    assert(es.map(r => (r.getInt(0), r.getInt(1))).toSet === Set((0, 2), (1, 2)))
  }
}
