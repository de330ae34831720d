package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.blocking.Arcs

/** Distributed Blocking Graph construction (Sec. 3.2): edges and their ARCS
  * weights computed with a token self-join + aggregation across partitions —
  * the Meta-blocking dataflow the equality-based progressive methods rely on.
  */
object SparkBlockingGraph {

  /** Weighted edges `(i, j, weight, lecobi)` of the Blocking Graph.
    *
    * The self-join of the filtered index on `token` yields one row per
    * (pair, shared block); the per-pair aggregation collects the shared
    * blocks' `(block_id, cardinality)` in ascending `block_id`. The weight
    * sums their `Arcs.term` from 0.0 in that order, the order of the
    * Profile Index merge, so every weight has the driver's raw bits; the
    * head of the list is the Least Common Block Index. Consumers can both
    * weight and deduplicate comparisons without any further pass.
    *
    * Pair validity: `i < j`, and cross-source for Clean-clean ER.
    */
  def arcsEdges(filteredIndex: DataFrame, orderedStats: DataFrame, cleanClean: Boolean): DataFrame = {
    val arcs = udf((cards: Seq[Double]) => cards.foldLeft(0.0)((w, card) => w + Arcs.term(card.toLong)))
    val a = filteredIndex.join(orderedStats.select("token", "cardinality", "block_id"), "token").select(
      col("token"),
      col("profile_id").as("ia"), col("source").as("sa"),
      col("cardinality"), col("block_id"))
    val b = filteredIndex.select(
      col("token"),
      col("profile_id").as("ib"), col("source").as("sb"))
    val pairCond =
      if (cleanClean) col("sa") =!= col("sb") else lit(true)
    a.join(b, Seq("token"))
      .filter(col("ia") < col("ib") && pairCond)
      .groupBy(col("ia").as("i"), col("ib").as("j"))
      .agg(sort_array(collect_list(struct(col("block_id"), col("cardinality")))).as("shared"))
      .select(
        col("i"), col("j"),
        arcs(col("shared.cardinality")).as("weight"),
        col("shared")(0)("block_id").as("lecobi"))
  }

  /** The distributed PBS comparison order (Sec. 5.2.1): every comparison
    * materialized from its least common block, blocks processed in
    * non-decreasing cardinality, descending edge weight inside a block —
    * i.e. a global sort by (lecobi, −weight, i, j).
    */
  def pbsOrder(edges: DataFrame): DataFrame =
    edges.orderBy(col("lecobi").asc, col("weight").desc, col("i").asc, col("j").asc)
}
