package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.PaperExample
import repro.blocking.{BlockFiltering, BlockPurging, TokenBlocking}

class SparkTokenBlockingSpec extends SparkSpec {

  private lazy val profiles = SparkEr.profilesDF(spark, PaperExample.pc)
  private lazy val index = SparkEr.tokenIndex(profiles).cache()

  test("profilesDF has one row per name-value pair") {
    assert(profiles.count() === PaperExample.pc.profiles.map(_.attrs.size).sum)
  }

  test("tokenIndex matches the local tokenizer placements") {
    val got = index.collect().map(r => (r.getString(2), r.getInt(0))).toSet
    val expected = repro.core.Tokenizer.placements(PaperExample.pc).toSet
    assert(got === expected)
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
    val (_, ordered) = SparkTokenBlocking.workflow(
      index, PaperExample.pc.size.toLong, cleanClean = false,
      purgeFraction = 1.0, filterRatio = 1.0)
    val rows = ordered.orderBy("block_id")
      .select("token", "cardinality", "block_id").collect()
    val cards = rows.map(_.getAs[Number]("cardinality").doubleValue())
    assert(cards.zip(cards.tail).forall { case (a, b) => a <= b })
    assert(rows.map(_.getString(0)).toSeq ===
      Seq("baker", "brown", "carl", "ellen", "smith", "tailor", "white"))
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
