package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Comparison, ProfileCollection}

/** Distributed progressive comparison ordering: ties the Spark pipelines
  * together into emission streams equivalent to the driver-side methods.
  *
  * The data-parallel part — blocking, graph weighting, global ordering — runs
  * as DataFrame jobs across partitions; the inherently sequential emission is
  * a `toLocalIterator` over the globally sorted comparisons, fetched a
  * partition at a time (for GS-PSN while later partitions may still be
  * materializing; PBS's are filled first).
  */
object SparkProgressive {

  /** End-to-end distributed PBS: Token Blocking Workflow (the paper's 10 %
    * purging and 80 % filtering) → ARCS Blocking Graph → global
    * (lecobi, −weight) sort. Returns the ordered comparisons DataFrame
    * (columns i, j, weight, lecobi), persisted and filled: the one DataFrame
    * left cached, which the caller unpersists when done.
    */
  def pbs(spark: SparkSession, pc: ProfileCollection): DataFrame = {
    val cc = SparkEr.isCleanClean(pc)
    val index = SparkEr.tokenIndex(SparkEr.profilesDF(spark, pc))
    val (filtered, ordered) = SparkTokenBlocking.workflow(index, pc.size.toLong, cc)
    val comparisons = SparkBlockingGraph.pbsOrder(SparkBlockingGraph.arcsEdges(filtered, ordered, cc)).persist()
    comparisons.count() // filled while `filtered` is cached, so it is not computed again
    filtered.unpersist()
    comparisons
  }

  /** End-to-end distributed GS-PSN: distributed Neighbor List → RCF weights
    * over `[1, wMax]` → global descending-weight sort.
    */
  def gsPsn(spark: SparkSession, pc: ProfileCollection, wMax: Int): DataFrame = {
    val index = SparkEr.tokenIndex(SparkEr.profilesDF(spark, pc))
    val nl = SparkNeighborList.placements(spark, index)
    SparkNeighborList.gsPsnOrder(nl, wMax, SparkEr.isCleanClean(pc))
  }

  /** Stream an ordered comparisons DataFrame as an emission iterator. */
  def emissions(ordered: DataFrame): Iterator[Comparison] = {
    val it = ordered.toLocalIterator()
    new Iterator[Comparison] {
      def hasNext: Boolean = it.hasNext
      def next(): Comparison = {
        val r = it.next()
        Comparison.of(
          r.getAs[Number]("i").intValue(),
          r.getAs[Number]("j").intValue(),
          r.getAs[Number]("weight").doubleValue())
      }
    }
  }
}
