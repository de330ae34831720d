package repro.spark

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import repro.core.{CleanCleanEr, ProfileCollection, Tokenizer}

/** Bridges between the in-memory profile model and the DataFrame world.
  *
  * The canonical relational encoding of a profile collection is the tall
  * table `(profile_id, source, attr, value)` — schema-agnostic by
  * construction (attribute names are data, not columns).
  */
object SparkEr {

  /** Profiles as a tall DataFrame: one row per attribute name–value pair. */
  def profilesDF(spark: SparkSession, pc: ProfileCollection): DataFrame = {
    import spark.implicits._
    pc.profiles
      .flatMap(p => p.attrs.map { case (a, v) => (p.id, p.source, a, v) })
      .toDF("profile_id", "source", "attr", "value")
  }

  /** The schema-agnostic blocking-key relation `(profile_id, source, token)`:
    * the distinct `Tokenizer.tokens` of every attribute value.
    */
  def tokenIndex(profiles: DataFrame): DataFrame = {
    val spark = profiles.sparkSession
    import spark.implicits._
    profiles
      .select("profile_id", "source", "value").as[(Int, Int, String)]
      .flatMap { case (id, source, value) => Tokenizer.tokens(value).map((id, source, _)) }
      .toDF("profile_id", "source", "token")
      .distinct()
  }

  /** `df` with the column `name`: each row's 0-based rank in the total order
    * `by`. A sorted `zipWithIndex`, so no window moves the relation into one
    * partition.
    */
  def ranked(df: DataFrame, name: String, by: Column*): DataFrame = {
    val sorted = df.orderBy(by: _*)
    df.sparkSession.createDataFrame(
      sorted.rdd.zipWithIndex().map { case (r, k) => Row.fromSeq(r.toSeq :+ k) },
      sorted.schema.add(name, "long", nullable = false))
  }

  /** Is this collection Clean-clean? (drives pair validity in joins) */
  def isCleanClean(pc: ProfileCollection): Boolean = pc.erType == CleanCleanEr
}
