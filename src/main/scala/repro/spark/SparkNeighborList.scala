package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.NeighborList

/** Distributed Neighbor List (Sec. 3.2 / 5.1): a global sort of all
  * (token, profile) placements across partitions, plus the window-based
  * co-occurrence counting that powers the RCF-weighted comparison ordering
  * of LS-PSN / GS-PSN.
  */
object SparkNeighborList {

  /** Placements with global positions `(pos, token, profile_id, source)`.
    *
    * Ties inside a token run are broken by `NeighborList.tie`, as in the
    * local `NeighborList`, so the distributed list is bit-identical to the
    * single-node one (coincidental proximity included).
    */
  def placements(spark: SparkSession, index: DataFrame): DataFrame = {
    import spark.implicits._
    val tie = udf((t: String, id: Int) => NeighborList.tie(t, id))
    index
      .withColumn("tie", tie(col("token"), col("profile_id")))
      .orderBy(col("token"), col("tie"))
      .select("token", "profile_id", "source")
      .rdd
      .zipWithIndex()
      .map { case (r, pos) => (pos, r.getString(0), r.getInt(1), r.getInt(2)) }
      .toDF("pos", "token", "profile_id", "source")
  }

  /** RCF-weighted comparisons over window sizes `[wLo, wHi]`:
    * `(i, j, freq, weight)` with `i < j`.
    *
    * Each placement is exploded into its `[wLo, wHi]` forward offsets and
    * equi-joined with the placement at the target position — one row per
    * (position pair, window) co-occurrence — then aggregated per profile
    * pair. RCF normalizes by the placement counts of both profiles scaled by
    * the window-range size W: `freq / (W·(|PI_i| + |PI_j|) − freq)` — the
    * paper's formula at W = 1, kept positive for window ranges (see
    * `repro.core.Rcf`).
    */
  def rcfComparisons(nl: DataFrame, wLo: Int, wHi: Int, cleanClean: Boolean): DataFrame = {
    val windows = wHi - wLo + 1
    val a = nl.select(
      col("pos").as("pa"), col("profile_id").as("ia"), col("source").as("sa"))
    val b = nl.select(
      col("pos").as("pb"), col("profile_id").as("ib"), col("source").as("sb"))
    val cooc = a
      .withColumn("delta", explode(sequence(lit(wLo), lit(wHi))))
      .withColumn("pb", col("pa") + col("delta"))
      .join(b, "pb")
      .filter(
        if (cleanClean) col("sa") =!= col("sb")
        else col("ia") =!= col("ib"))
    val lens = nl.groupBy(col("profile_id")).agg(count(lit(1)).as("len"))
    cooc
      .groupBy(
        least(col("ia"), col("ib")).as("i"),
        greatest(col("ia"), col("ib")).as("j"))
      .agg(count(lit(1)).as("freq"))
      .join(lens.withColumnRenamed("profile_id", "i").withColumnRenamed("len", "len_i"), "i")
      .join(lens.withColumnRenamed("profile_id", "j").withColumnRenamed("len", "len_j"), "j")
      .withColumn("denom", lit(windows) * (col("len_i") + col("len_j")) - col("freq"))
      .withColumn("weight",
        when(col("denom") <= 0, col("freq").cast("double"))
          .otherwise(col("freq") / col("denom")))
      .select("i", "j", "freq", "weight")
  }

  /** The distributed GS-PSN comparison order: one global sort of the RCF
    * comparisons over `[1, wMax]` in descending weight (Sec. 5.1.2).
    */
  def gsPsnOrder(nl: DataFrame, wMax: Int, cleanClean: Boolean): DataFrame =
    rcfComparisons(nl, 1, wMax, cleanClean)
      .orderBy(col("weight").desc, col("i").asc, col("j").asc)
}
