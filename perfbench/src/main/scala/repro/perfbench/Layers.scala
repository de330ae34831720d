package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.blocking._
import repro.core._
import repro.eval.ErDataset
import scala.collection.mutable

/** The per-layer probes of a traced run: each public function of a layer is
  * called on its own, inside a span named after the metric it yields, and
  * the sizes of what it built are counted beside it.
  *
  * @param budget  the ec* = 10 emission budget
  * @param sparkOf the run's SparkSession, started on first use
  * @param record  counts one checked operation and its failed checks
  */
final class Layers(
    w: Workload,
    ds: ErDataset,
    budget: Int,
    tr: Tracer,
    sparkOf: () => SparkSession,
    record: (String, Seq[String]) => Unit) {
  private val pc = ds.pc
  private val out = mutable.LinkedHashMap.empty[String, Double]

  private def ms[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val a = tr.span(name)(body)
    out(name) = (System.nanoTime() - t0) / 1e6
    a
  }

  /** @param reference each method's warm-up pass
    * @param quality   each method's warm-up quality
    */
  def probe(recipes: Seq[Recipe], reference: Map[String, Pass], quality: Map[String, Quality]): Map[String, Double] = {

    // core.Tokenizer and core.NeighborList
    val placements = ms("tokenize.ms")(Tokenizer.placements(pc))
    out("tokenize.placements") = placements.size
    val nl = ms("nl.build_ms")(NeighborList.fromPlacements(placements, pc.size))
    out("nl.size") = nl.size

    // core.SAPSAB
    val blocks = ms("sapsab.blocks_ms")(new SAPSAB(pc, lMin = 4).orderedBlocks)
    out("sapsab.blocks") = blocks.size
    out("sapsab.cardinality") = blocks.iterator.map(_.cardinality).sum.toDouble

    // core.LSPSN: window 1, then how many windows the ec* = 10 stream drew on
    val ls = new LSPSN(pc, nl)
    val window1 = ms("lspsn.window1_ms")(ls.windowComparisons(1)).size
    out("lspsn.window1_size") = window1
    var windows = 0
    var listed = 0L
    while (listed < reference("LS-PSN").emitted && windows + 1 < nl.size) {
      windows += 1
      listed += (if (windows == 1) window1 else tr.span("lspsn.refill")(ls.windowComparisons(windows)).size)
    }
    out("lspsn.windows_used") = windows

    // core.LSPSN: the GS-PSN Comparison List on the prebuilt Neighbor List
    val gs = new GSPSN(pc, nl, w.wMax)
    out("gspsn.list_size") = ms("gspsn.list_ms")(gs.globalComparisons()).size
    out("gspsn.effective_wmax") = gs.effectiveWMax

    // blocking: the Token Blocking Workflow step by step, then the Profile Index
    val tb = ms("tb.build_ms")(TokenBlocking.build(pc))
    out("tb.blocks") = tb.size
    out("tb.cardinality") = tb.aggregateCardinality.toDouble
    val purged = ms("purge.ms")(BlockPurging.purge(tb, 0.1))
    out("purge.blocks") = purged.size
    val filtered = ms("filter.ms")(BlockFiltering.filter(purged, 0.8))
    out("filter.blocks") = filtered.size
    out("filter.cardinality") = filtered.aggregateCardinality.toDouble
    val pi = ms("pi.build_ms")(ProfileIndex.build(filtered))
    out("pi.entries") = (0 until pc.size).map(pi.blocksOf(_).length.toLong).sum.toDouble

    // core.PPS and blocking.BlockingGraph
    out("pps.top_comparisons") = ms("pps.init_ms")(new PPS(pc, pi, kMax = 50).initialize()).topComparisons.size
    val degrees = ms("graph.neighborhood_ms")((0 until pc.size).map(BlockingGraph.neighborhood(pc, pi, _).size.toLong).sum)
    out("graph.edges") = degrees / 2.0

    // core.PBS: blocks drawn on up to ec* = 10, and the share LeCoBI kept
    val pbs = new PBS(pc, pi)
    var used = 0
    var kept = 0L
    var all = 0L
    while (kept < reference("PBS").emitted && used < pi.orderedBlocks.size) {
      kept += pbs.blockComparisons(used).size
      all += pi.orderedBlocks(used).pairs(pc).size
      used += 1
    }
    out("pbs.blocks_used") = used
    out("pbs.lecobi_kept_ratio") = if (all == 0) 1.0 else kept.toDouble / all

    // The emission loop alone: every method again, without the match function
    val silent = new Tracer(false)
    for (r <- recipes) {
      val p = tr.span(s"emit.${r.name}")(
        Measure.closedLoop(r.name, r.start, budget, silent, recordTimes = true)(_ => ()))
      out(s"emit.ns_per_cmp.${r.name}") = Measure.nsPerEmission(p)
      out(s"emit.max_gap_ms.${r.name}") = Measure.maxGapNs(p.timesNs.get, p.emitted) / 1e6
      out(s"emit.distinct_ratio.${r.name}") = Measure.distinctRatio(p)
      if (Set("PBS", "GS-PSN")(r.name)) out(s"driver.first_emission_s.${r.name}") = p.firstNs / 1e9
    }

    // eval.MatchFunctions over every emission of the warm-up passes
    val pairs = reference.values.toSeq.flatMap(p => p.pairs.iterator.take(p.emitted))
    val t0 = System.nanoTime()
    tr.span("match")(pairs.foreach(k => w.matchFn.run(pc.profiles(Measure.left(k)), pc.profiles(Measure.right(k)))))
    out("match.us_per_cmp") = (System.nanoTime() - t0) / 1e3 / math.max(1, pairs.size)

    // The schema-based PSN baseline, where the dataset has an expert key;
    // kept in the trace file only, as the other workloads have no PSN.
    Workloads.psnRecipe(ds).foreach { r =>
      val p = tr.span("psn")(Measure.closedLoop(r.name, r.start, budget, silent, recordTimes = true)(_ => ()))
      tr.count("psn.first_emission_ms", p.firstNs / 1e6)
      tr.count("psn.ns_per_cmp", Measure.nsPerEmission(p))
      tr.count("psn.auc_star_at_10", Measure.quality(p, ds.gt).aucStar10)
    }

    // repro.spark, stage by stage; the Spark PBS and GS-PSN streams are
    // checked like the driver's and must keep its AUC*@10 within 0.05, the
    // tolerance of SparkProgressiveSpec
    val spark = SparkProbe.run(sparkOf(), pc, w.wMax, budget, tr)
    for ((stage, stats) <- spark.stages; (k, v) <- stats) out(s"spark.$stage.$k") = v
    for ((m, p) <- spark.streams) {
      val q = Measure.quality(p, ds.gt)
      out(s"quality.spark_auc_star_at_10.$m") = q.aucStar10
      val drift = math.abs(q.aucStar10 - quality(m).aucStar10)
      record(s"Spark $m", Measure.check(p, pc, noRepeats = true) ++
        (if (q.curveOk) Nil else Seq("recall curve is not monotone or holds NaN")) ++
        (if (drift < 0.05) Nil
         else Seq(f"Spark AUC*@10 ${q.aucStar10}%.4f is not within 0.05 of the driver's ${quality(m).aucStar10}%.4f")))
    }

    out.toMap
  }
}
