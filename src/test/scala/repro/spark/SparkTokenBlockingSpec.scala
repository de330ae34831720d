package repro.spark

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.core.{DirtyEr, PaperExample, Profile, ProfileCollection, Tokenizer}
import repro.blocking.{BlockFiltering, BlockPurging, TokenBlocking, TokenBlockingWorkflow}
import repro.data.{HeterogeneousData, StructuredData}

class SparkTokenBlockingSpec extends SparkSpec {

  private lazy val profiles = SparkEr.profilesDF(spark, PaperExample.pc)
  private lazy val index = SparkEr.tokenIndex(profiles).cache()

  test("profilesDF has one row per name-value pair") {
    assert(profiles.count() === PaperExample.pc.profiles.map(_.attrs.size).sum)
  }

  test("tokenIndex matches the local tokenizer placements") {
    val got = index.collect().map(r => (r.getString(2), r.getInt(0))).toSet
    val expected = Tokenizer.placements(PaperExample.pc).toSet
    assert(got === expected)
  }

  test("tokenIndex equals the local tokenizer placements on random Unicode values") {
    // combining marks, surrogate pairs, dotted and dotless i, full-width
    // digits and letters, empty values and values with no token
    val pieceGen = Gen.oneOf(
      Gen.alphaNumChar.map(_.toString),
      Gen.oneOf(" ", "-", ".", "/", "\t"),
      Gen.oneOf("e\u0301", "\u0301", "a\u0308", "\u20dd"),
      Gen.oneOf("\ud835\udc9c", "\ud83d\ude00", "\ud801\udc00", "\ud801\udc28"),
      Gen.oneOf("\u0130", "\u0131", "i\u0307", "I", "\u212a"),
      Gen.oneOf("\uff10", "\uff11", "\uff19", "\uff21"))
    val valueGen = Gen.frequency(
      5 -> Gen.choose(1, 12).flatMap(Gen.listOfN(_, pieceGen)).map(_.mkString),
      1 -> Gen.oneOf("", "--", " ", "\u0301\u0308"))
    val profileGen = Gen.choose(0, 4).flatMap(Gen.listOfN(_, valueGen))
    val values = Gen.listOfN(200, profileGen).apply(Gen.Parameters.default, Seed(9L)).get
    val pc = ProfileCollection(
      values.zipWithIndex.map { case (vs, i) => Profile(i, 0, vs.toVector.map("v" -> _)) }.toVector,
      DirtyEr)
    val got = SparkEr.tokenIndex(SparkEr.profilesDF(spark, pc)).collect()
      .map(r => (r.getString(2), r.getInt(0))).toSet
    assert(got === Tokenizer.placements(pc).toSet)
  }

  test("blockStats matches the local token blocks (oracle-checked)") {
    val stats = SparkTokenBlocking.blockStats(index, cleanClean = false)
      .select("token", "size", "cardinality")
    // DuckDB oracle over the same token index
    Oracle.assertEquivalent(
      stats,
      """SELECT token,
        |       COUNT(*) AS size,
        |       COUNT(*) * (COUNT(*) - 1) / 2 AS cardinality
        |FROM pt GROUP BY token HAVING COUNT(*) >= 2""".stripMargin,
      "pt" -> index)
    // and against the local reference implementation
    val local = TokenBlocking.build(PaperExample.pc)
    val got = stats.collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(got === local.blocks.map(b => b.key -> b.size.toLong).toMap)
  }

  test("purge drops oversized blocks like the local implementation") {
    val stats = SparkTokenBlocking.blockStats(index, cleanClean = false)
    val purged = SparkTokenBlocking.purge(stats, PaperExample.pc.size.toLong, 0.5)
    val localPurged = BlockPurging.purge(TokenBlocking.build(PaperExample.pc), 0.5)
    assert(purged.select("token").collect().map(_.getString(0)).toSet ===
      localPurged.blocks.map(_.key).toSet)
  }

  test("purge is oracle-checked against a SQL HAVING clause") {
    val stats = SparkTokenBlocking.blockStats(index, cleanClean = false)
    Oracle.assertEquivalent(
      SparkTokenBlocking.purge(stats, PaperExample.pc.size.toLong, 0.5).select("token", "size"),
      """SELECT token, COUNT(*) AS size
        |FROM pt GROUP BY token
        |HAVING COUNT(*) >= 2 AND COUNT(*) <= 0.5 * 6""".stripMargin,
      "pt" -> index)
  }

  test("filterIndex reproduces the local Block Filtering retention") {
    val stats = SparkTokenBlocking.blockStats(index, cleanClean = false)
    val filtered = SparkTokenBlocking.filterIndex(index, stats, 0.5)
    val localFiltered = BlockFiltering.filter(TokenBlocking.build(PaperExample.pc), 0.5)
    val got = filtered.collect().map(r => (r.getString(2), r.getInt(0))).toSet
    // the local result drops 0-comparison blocks; the Spark index keeps the
    // retained (token, profile) pairs — compare on the local retained pairs
    val expectedRetained = Set(
      ("ellen", 0), ("ellen", 1), ("smith", 0), ("smith", 1), ("smith", 2),
      ("tailor", 2), ("baker", 3), ("baker", 4), ("brown", 3), ("brown", 4),
      ("white", 5))
    assert(got === expectedRetained)
    // blocks with ≥1 comparison agree with the local reference
    val sparkBlocks = got.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
      .filter(_._2.size >= 2)
    assert(sparkBlocks === localFiltered.blocks.map(b => b.key -> b.profiles.toSet).toMap)
  }

  test("workflow block ids follow non-decreasing cardinality") {
    val (filtered, ordered) = SparkTokenBlocking.workflow(
      index, PaperExample.pc.size.toLong, cleanClean = false,
      purgeFraction = 1.0, filterRatio = 1.0)
    val rows = ordered.orderBy("block_id")
      .select("token", "cardinality", "block_id").collect()
    filtered.unpersist(blocking = true)
    val cards = rows.map(_.getAs[Number]("cardinality").doubleValue())
    assert(cards.zip(cards.tail).forall { case (a, b) => a <= b })
    assert(rows.map(_.getString(0)).toSeq ===
      Seq("baker", "brown", "carl", "ellen", "smith", "tailor", "white"))
    // the block at block_id k is block k of the driver's Profile Index
    def assertDriverOrder(pc: ProfileCollection, index: DataFrame, purgeFraction: Double, filterRatio: Double): Unit = {
      val (filtered, ordered) = SparkTokenBlocking.workflow(
        index, pc.size.toLong, SparkEr.isCleanClean(pc), purgeFraction, filterRatio)
      val rows = ordered.orderBy("block_id").select("token", "cardinality", "block_id").collect()
      filtered.unpersist(blocking = true)
      val pi = TokenBlockingWorkflow.profileIndex(pc, purgeFraction, filterRatio)
      val clue = s"${pc.erType} |P|=${pc.size}"
      assert(rows.map(_.getLong(2)).toSeq === rows.indices.map(_.toLong), clue)
      assert(rows.map(_.getString(0)).toSeq === pi.orderedBlocks.map(_.key), clue)
      assert(rows.map(_.getDouble(1).toLong).toSeq === pi.cardinalities.toSeq, clue)
    }
    assertDriverOrder(PaperExample.pc, index, purgeFraction = 1.0, filterRatio = 1.0)
    for (pc <- Seq(StructuredData.census().pc, HeterogeneousData.movies(0.005).pc))
      assertDriverOrder(pc, SparkEr.tokenIndex(SparkEr.profilesDF(spark, pc)), purgeFraction = 0.1, filterRatio = 0.8)
  }

  test("the workflow's filtered index holds the memberships of the driver's filtered blocks, and is all it leaves cached") {
    val sc = spark.sparkContext
    def assertDriverMemberships(pc: ProfileCollection, index: DataFrame, purgeFraction: Double, filterRatio: Double): Unit = {
      index.count()
      val cached = sc.getPersistentRDDs.keySet
      val (filtered, _) = SparkTokenBlocking.workflow(
        index, pc.size.toLong, SparkEr.isCleanClean(pc), purgeFraction, filterRatio)
      val pi = TokenBlockingWorkflow.profileIndex(pc, purgeFraction, filterRatio)
      val clue = s"${pc.erType} |P|=${pc.size}"
      assert(filtered.count() === pi.orderedBlocks.map(_.size.toLong).sum, clue)
      assert(filtered.collect().map(r => (r.getString(2), r.getInt(0))).toSet ===
        pi.orderedBlocks.flatMap(b => b.profiles.map(b.key -> _)).toSet, clue)
      filtered.unpersist(blocking = true)
      assert(sc.getPersistentRDDs.keySet.forall(cached), clue)
    }
    // filtering at 0.5 leaves "tailor" and "white" with one profile each
    assertDriverMemberships(PaperExample.pc, index, purgeFraction = 1.0, filterRatio = 0.5)
    for (pc <- Seq(StructuredData.census().pc, HeterogeneousData.movies(0.005).pc))
      assertDriverMemberships(pc, SparkEr.tokenIndex(SparkEr.profilesDF(spark, pc)), purgeFraction = 0.1, filterRatio = 0.8)
  }

  test("Clean-clean blockStats uses cross-source cardinality (oracle-checked)") {
    import spark.implicits._
    val cc = Seq(
      (0, 1, "t"), (1, 1, "t"), (2, 2, "t"), (3, 2, "t"), (4, 2, "t"),
      (0, 1, "u"), (2, 2, "u"), (5, 1, "x"), (6, 1, "x"))
      .toDF("profile_id", "source", "token")
    val stats = SparkTokenBlocking.blockStats(cc, cleanClean = true)
    Oracle.assertEquivalent(
      stats.select("token", "size", "cardinality"),
      """SELECT token, COUNT(*) AS size,
        |       CAST(SUM(CASE WHEN CAST(source AS INT) = 1 THEN 1 ELSE 0 END)
        |            * SUM(CASE WHEN CAST(source AS INT) = 2 THEN 1 ELSE 0 END) AS DOUBLE)
        |         AS cardinality
        |FROM pt GROUP BY token
        |HAVING SUM(CASE WHEN CAST(source AS INT) = 1 THEN 1 ELSE 0 END)
        |       * SUM(CASE WHEN CAST(source AS INT) = 2 THEN 1 ELSE 0 END) > 0""".stripMargin,
      "pt" -> cc)
  }
}
