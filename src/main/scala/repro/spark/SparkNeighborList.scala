package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{NeighborList, Rcf}

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
    val tie = udf((t: String, id: Int) => NeighborList.tie(t, id)).apply(col("token"), col("profile_id"))
    SparkEr.ranked(index, "pos", col("token"), tie).select("pos", "token", "profile_id", "source")
  }

  /** RCF-weighted comparisons over window sizes `[wLo, wHi]`:
    * `(i, j, freq, weight)` with `i < j`.
    *
    * Each placement is exploded into its `[wLo, wHi]` forward offsets and
    * equi-joined with the placement at the target position — one row per
    * (position pair, window) co-occurrence — then aggregated per profile
    * pair, and weighted by `Rcf.weight` over the window-range size W and
    * the placement counts of both profiles.
    */
  def rcfComparisons(nl: DataFrame, wLo: Int, wHi: Int, cleanClean: Boolean): DataFrame = {
    val windows = wHi - wLo + 1
    val rcf = udf((freq: Long, lenI: Long, lenJ: Long) => Rcf.weight(freq.toInt, lenI.toInt, lenJ.toInt, windows))
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
      .join(lens.toDF("i", "len_i"), "i")
      .join(lens.toDF("j", "len_j"), "j")
      .select(col("i"), col("j"), col("freq"), rcf(col("freq"), col("len_i"), col("len_j")).as("weight"))
  }

  /** The distributed GS-PSN comparison order: one global sort of the RCF
    * comparisons over `[1, wMax]` in descending weight (Sec. 5.1.2).
    */
  def gsPsnOrder(nl: DataFrame, wMax: Int, cleanClean: Boolean): DataFrame =
    rcfComparisons(nl, 1, wMax, cleanClean)
      .orderBy(col("weight").desc, col("i").asc, col("j").asc)
}
