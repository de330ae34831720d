package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.blocking.{Block, BlockFiltering}
import repro.core.{CleanCleanEr, DirtyEr}
import scala.jdk.CollectionConverters._

/** The Token Blocking Workflow (Sec. 7) as a distributed DataFrame pipeline:
  * Token Blocking → Block Purging (10 %) → Block Filtering (80 %).
  *
  * Input: the token index `(profile_id, source, token)`.
  * Output: the filtered index, plus per-block statistics. Cardinalities are
  * `Block.cardinality` under the collection's ER type.
  */
object SparkTokenBlocking {

  /** Per-token block statistics `(token, size, n1, cardinality)` over an
    * index; blocks without an executable comparison are dropped.
    */
  def blockStats(index: DataFrame, cleanClean: Boolean): DataFrame = {
    val erType = if (cleanClean) CleanCleanEr else DirtyEr
    val card = udf((size: Long, n1: Long) => Block.cardinality(erType, size, n1).toDouble)
    index.groupBy("token")
      .agg(count(lit(1)).as("size"), sum(when(col("source") === 1, 1L).otherwise(0L)).as("n1"))
      .withColumn("cardinality", card(col("size"), col("n1")))
      .filter(col("cardinality") > 0)
  }

  /** Block Purging: drop blocks with more than `maxFraction·nProfiles`
    * profiles (stop-word tokens).
    */
  def purge(stats: DataFrame, nProfiles: Long, maxFraction: Double = 0.1): DataFrame =
    stats.filter(col("size") <= maxFraction * nProfiles)

  /** Block Filtering: every profile stays only in the
    * `BlockFiltering.keepCount` smallest of its surviving blocks (rank by
    * pre-filter cardinality, ties by token).
    */
  def filterIndex(index: DataFrame, purgedStats: DataFrame, ratio: Double = 0.8): DataFrame = {
    val keep = udf((n: Long) => BlockFiltering.keepCount(n.toInt, ratio))
    val joined = index.join(purgedStats, "token")
    val w = Window.partitionBy("profile_id").orderBy(col("cardinality"), col("token"))
    joined
      .withColumn("rank", row_number().over(w))
      .withColumn("nblocks", count(lit(1)).over(Window.partitionBy("profile_id")))
      .filter(col("rank") <= keep(col("nblocks")))
      .select("profile_id", "source", "token")
  }

  /** Full workflow: token index in, filtered index + final block stats out.
    * The final stats include the PBS processing order: `block_id` is the rank
    * of the block after sorting by (post-filter cardinality, token). The
    * stats are collected and ranked on the driver, in the order of the
    * driver's Profile Index, into a local relation, and the filtered index
    * keeps the memberships of those blocks only, as the driver's blocks do.
    * The retained index is persisted for the collection and read once more
    * to fill the filtered index, which is persisted in its place: the one
    * DataFrame left cached, which the caller unpersists when done.
    */
  def workflow(
      index: DataFrame,
      nProfiles: Long,
      cleanClean: Boolean,
      purgeFraction: Double = 0.1,
      filterRatio: Double = 0.8): (DataFrame, DataFrame) = {
    val purged   = purge(blockStats(index, cleanClean), nProfiles, purgeFraction)
    val retained = filterIndex(index, purged, filterRatio).persist()
    val stats    = blockStats(retained, cleanClean)
    val byOrder  = stats.collect().sortBy(r => (r.getAs[Double]("cardinality").toLong, r.getAs[String]("token")))
    val ordered  = index.sparkSession.createDataFrame(
      byOrder.indices.map(k => Row.fromSeq(byOrder(k).toSeq :+ k.toLong)).asJava,
      stats.schema.add("block_id", "long", nullable = false))
    val filtered = retained.join(broadcast(ordered.select("token")), Seq("token"), "left_semi")
      .select("profile_id", "source", "token").persist()
    filtered.count() // filled while `retained` is cached, so it is not computed again
    retained.unpersist()
    (filtered, ordered)
  }
}
