package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.ProfileCollection
import repro.spark._
import scala.collection.mutable

/** What one job group (one probed stage) did, as the listener saw it. */
final case class GroupStats(jobs: Int, jobsEnded: Int, shuffleBytes: Long, maxTasks: Int)

/** Collects per-job-group shuffle bytes and the widest stage's partition
  * count (its number of tasks). Listener
  * events arrive asynchronously, so readers wait for the group to settle.
  */
final class StageListener extends SparkListener {
  private val groupOfStage = new ConcurrentHashMap[Int, String]()
  private val groupOfJob = new ConcurrentHashMap[Int, String]()
  private val stats = mutable.Map.empty[String, GroupStats]

  private def update(g: String)(f: GroupStats => GroupStats): Unit = synchronized {
    stats(g) = f(stats.getOrElse(g, GroupStats(0, 0, 0L, 0)))
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("-")
    e.stageIds.foreach(groupOfStage.put(_, g))
    groupOfJob.put(e.jobId, g)
    update(g)(s => s.copy(jobs = s.jobs + 1))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    update(Option(groupOfJob.get(e.jobId)).getOrElse("-"))(s => s.copy(jobsEnded = s.jobsEnded + 1))

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val g = Option(groupOfStage.get(e.stageInfo.stageId)).getOrElse("-")
    val bytes = Option(e.stageInfo.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    update(g)(s => s.copy(shuffleBytes = s.shuffleBytes + bytes, maxTasks = math.max(s.maxTasks, e.stageInfo.numTasks)))
  }

  /** The group's stats once every job it started has ended and no event
    * arrived for a short while.
    */
  def settled(group: String, timeoutMs: Long = 5000): GroupStats = {
    val deadline = System.currentTimeMillis() + timeoutMs
    var last = synchronized(stats.get(group))
    var stableSince = System.currentTimeMillis()
    while (System.currentTimeMillis() < deadline &&
           (last.forall(s => s.jobsEnded < s.jobs) || System.currentTimeMillis() - stableSince < 100)) {
      Thread.sleep(10)
      val now = synchronized(stats.get(group))
      if (now != last) { last = now; stableSince = System.currentTimeMillis() }
    }
    last.getOrElse(GroupStats(0, 0, 0L, 0))
  }
}

/** Runs the Spark pipelines of `repro.spark` stage by stage, each stage as
  * its own job group over the persisted output of the stage before it, so
  * each stage's time, rows, shuffle bytes and partitions are its own.
  */
object SparkProbe {

  val stages: Seq[String] = Seq("token_index", "tb_workflow", "arcs_edges", "pbs_order", "nl_placements", "gspsn_order")

  /** What the probe measured: per stage ms, rows, shuffle_bytes and
    * partitions; and the first `budget` emissions of the Spark PBS and
    * GS-PSN streams.
    */
  final case class Result(stages: Map[String, Map[String, Double]], streams: Map[String, Pass])

  def run(spark: SparkSession, pc: ProfileCollection, wMax: Int, budget: Int, tr: Tracer): Result = {
    val listener = new StageListener
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    val persisted = mutable.ArrayBuffer.empty[DataFrame]
    val out = mutable.LinkedHashMap.empty[String, Map[String, Double]]
    def keep(df: DataFrame): DataFrame = { persisted += df; df.persist(StorageLevel.MEMORY_ONLY) }
    def stage(name: String)(body: => Long): Unit = {
      sc.setJobGroup(s"perfbench.$name", name)
      val t0 = System.nanoTime()
      val rows = tr.span(s"spark.$name")(body)
      val ms = (System.nanoTime() - t0) / 1e6
      sc.clearJobGroup()
      val s = listener.settled(s"perfbench.$name")
      out(name) = Map("ms" -> ms, "rows" -> rows.toDouble,
        "shuffle_bytes" -> s.shuffleBytes.toDouble, "partitions" -> s.maxTasks.toDouble)
    }
    val streams = mutable.Map.empty[String, Pass]
    /** Stream an ordered plan to its end, as the emission path does,
      * keeping its first `budget` emissions.
      */
    def drain(method: String, df: DataFrame): Long = {
      val it = SparkProgressive.emissions(df)
      val p = Measure.closedLoop(method, _ => it, budget, new Tracer(false))(_ => ())
      streams(method) = p
      p.emitted + it.size.toLong
    }
    try {
      val cc = SparkEr.isCleanClean(pc)
      var index: DataFrame = null
      stage("token_index") { index = keep(SparkEr.tokenIndex(SparkEr.profilesDF(spark, pc))); index.count() }
      var filtered: DataFrame = null
      var ordered: DataFrame = null
      stage("tb_workflow") {
        val (f, o) = SparkTokenBlocking.workflow(index, pc.size.toLong, cc)
        filtered = keep(f); ordered = keep(o)
        ordered.count()
        filtered.count()
      }
      var edges: DataFrame = null
      stage("arcs_edges") { edges = keep(SparkBlockingGraph.arcsEdges(filtered, ordered, cc)); edges.count() }
      stage("pbs_order") { drain("PBS", SparkBlockingGraph.pbsOrder(edges)) }
      var nl: DataFrame = null
      stage("nl_placements") { nl = keep(SparkNeighborList.placements(spark, index)); nl.count() }
      stage("gspsn_order") { drain("GS-PSN", SparkNeighborList.gsPsnOrder(nl, wMax, cc)) }
      Result(out.toMap, streams.toMap)
    } finally {
      persisted.foreach(_.unpersist(blocking = true))
      sc.removeSparkListener(listener)
    }
  }
}
