package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.ErDataset
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Command-line entry point of the progressive-ER benchmark.
  *
  * {{{
  * Main --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <sf>]
  * }}}
  * The last line of standard output is the result object:
  * `{"correct", "attempted", "failed", "metrics"}`, with the `end_to_end`
  * metrics of `BENCHMARK.json` untraced and its `per_layer` metrics
  * traced. The line before it
  * records the environment; logs go to standard error, and the full record
  * (samples, spans, counts) to `perfbench/out/<workload>-<seed>-trace<t>.json`.
  * `--scale` overrides the workload's generator scale, e.g. to reproduce the
  * paper-size quality numbers.
  */
object Main {

  final case class Args(
      workload: String = "",
      seed: Option[Long] = None,
      seconds: Int = 10,
      trace: Boolean = false,
      scale: Option[Double] = None)

  private val usage =
    "usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
      "> [--seed n] [--seconds s] [--trace 0|1] [--scale sf]"

  def parse(args: List[String], a: Args = Args()): Args = args match {
    case Nil                          => a
    case "--workload" :: v :: rest    => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest        => parse(rest, a.copy(seed = Some(v.toLong)))
    case "--seconds" :: v :: rest     => parse(rest, a.copy(seconds = v.toInt))
    case "--trace" :: v :: rest       => parse(rest, a.copy(trace = v.toInt != 0))
    case "--scale" :: v :: rest       => parse(rest, a.copy(scale = Some(v.toDouble)))
    case other :: _                   => throw new IllegalArgumentException(s"unexpected argument '$other'; $usage")
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toList)
    val w = Workloads.byName(a.workload)
    val printed = metrics(new File("BENCHMARK.json"), if (a.trace) "per_layer" else "end_to_end")
    val run = new Run(w, a.seed.getOrElse(w.defaultSeed), a.scale.getOrElse(w.scale), a.seconds, a.trace,
      printed, new File("perfbench/out"))
    // exit explicitly: Spark may leave non-daemon threads behind
    val code =
      try {
        val line = try run.execute() finally run.close()
        println(line)
        0
      } catch {
        case e: Throwable => e.printStackTrace(); 1
      }
    System.out.flush()
    sys.exit(code)
  }

  /** The (name, unit) pairs of one metric list of `BENCHMARK.json`. */
  def metrics(benchmark: File, list: String): Seq[(String, String)] =
    new ObjectMapper().readTree(benchmark).get(list).elements().asScala.toSeq
      .map(m => m.get("name").asText -> m.get("unit").asText)
}

/** One benchmark run of one workload. */
final class Run(w: Workload, seed: Long, scale: Double, seconds: Int, traced: Boolean,
    printed: Seq[(String, String)], outDir: File) {
  private val log = System.err
  private val off = new Tracer(false)
  private val tracer = new Tracer(traced)
  private var spark: Option[SparkSession] = None
  private var attempted = 0
  private val failures = mutable.ArrayBuffer.empty[String]
  private var failedOps = 0

  private def now(): Long = System.nanoTime()
  private def secs(ns: Long): Double = ns / 1e9

  /** Count one operation (one method pass) and its failed checks. */
  private def record(op: String, problems: Seq[String]): Unit = {
    attempted += 1
    if (problems.nonEmpty) {
      failedOps += 1
      problems.foreach(p => failures += s"$op: $p")
      problems.foreach(p => log.println(s"[perfbench] FAILED $op: $p"))
    }
  }

  private def startSpark(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(outDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(outDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def close(): Unit = spark.foreach(_.stop())

  /** Heap in use after two full collections (the first one leaves what
    * only reference processing frees).
    */
  private def heapAfterGcMb(): Double = {
    val mx = ManagementFactory.getMemoryMXBean
    mx.gc()
    mx.gc()
    mx.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }

  def execute(): String = {
    outDir.mkdirs()
    val (ds, setupParts) = setUp()
    val pc = ds.pc
    val budget = Measure.budget(ds.gt)
    val consume: Comparison => Unit = c => w.matchFn.run(pc.profiles(c.i), pc.profiles(c.j))
    val recipes = Workloads.recipes(w, ds)
    log.println(s"[perfbench] ${w.name} seed=$seed scale=$scale |P|=${pc.size} |D_P|=${ds.gt.size} budget=$budget")

    // Warm-up: one checked pass per method; it also samples the heap and
    // gives the reference stream and the quality numbers.
    val t0 = now()
    val heap = mutable.LinkedHashMap.empty[String, Double]
    val reference = mutable.LinkedHashMap.empty[String, Pass]
    val quality = mutable.LinkedHashMap.empty[String, Quality]
    for (r <- recipes) {
      val p = Measure.closedLoop(r.name, r.start, budget, off, onFirst = () => heap(r.name) = heapAfterGcMb())(consume)
      val q = Measure.quality(p, ds.gt)
      reference(r.name) = p
      quality(r.name) = q
      record(r.name, Measure.check(p, pc, r.noRepeats) ++
        (if (q.curveOk) Nil else Seq("recall curve is not monotone or holds NaN")))
      log.println(f"[perfbench] warm-up ${r.name}: first ${secs(p.firstNs)}%.3f s, ec*=10 ${secs(p.endNs)}%.3f s, AUC*@10 ${q.aucStar10}%.4f")
    }
    def checked(r: Recipe, p: Pass): Unit =
      record(r.name, Measure.check(p, pc, r.noRepeats) ++
        (if (p.sameStream(reference(r.name))) Nil else Seq("stream differs from the warm-up pass")))
    // a second, untimed round: after one pass the JIT still has work to do
    for (r <- recipes) checked(r, Measure.closedLoop(r.name, r.start, budget, off)(consume))
    val warmupS = secs(now() - t0)
    val setupS = Measure.median(setupParts) + warmupS
    log.println(f"[perfbench] data ${Measure.median(setupParts)}%.3f s + warm-up $warmupS%.3f s")

    // Timed rounds, until the time is up: every method once per round, a
    // cheap one several times (interleaved with the others), so that each
    // method gets about the same time and the short timings get more
    // samples. A traced run alternates untraced and traced rounds.
    val reps = mutable.Map(recipes.map(_.name -> 1): _*)
    val firsts = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    val ends = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    val tracedEnds = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    val gaps = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    def add(m: mutable.Map[String, mutable.ArrayBuffer[Double]], k: String, v: Double): Unit =
      m.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v
    // a traced run spends half its time here: its Spark probe is slow
    val (minRounds, roundsNs) = if (traced) (4, seconds * 500000000L) else (3, seconds * 1000000000L)
    val (gcMs0, gcN0) = gcTotals()
    val t1 = now()
    var rounds = 0
    while (rounds < minRounds || (now() - t1 < roundsNs && rounds < 200)) {
      val tracedRound = traced && rounds % 2 == 1
      val tr = if (tracedRound) tracer else off
      for (k <- 1 to reps.values.max; r <- recipes if k <= reps(r.name)) {
        val p = Measure.closedLoop(r.name, r.start, budget, tr)(consume)
        if (tracedRound) {
          add(tracedEnds, r.name, secs(p.endNs))
          val root = tracer.named(r.name).head
          add(gaps, r.name, (root.durNs - tracer.children(root).map(_.durNs).sum) / 1e6)
        } else {
          add(firsts, r.name, secs(p.firstNs))
          add(ends, r.name, secs(p.endNs))
        }
        checked(r, p)
      }
      // size the next round's repetitions from this round's warm passes
      for (m <- Workloads.methods)
        reps(m) = math.max(1, math.min(10, math.round(0.3 / (if (tracedRound) tracedEnds else ends)(m).last).toInt))
      rounds += 1
    }
    val (gcMs1, gcN1) = gcTotals()
    log.println(f"[perfbench] $rounds rounds in ${secs(now() - t1)}%.3f s")

    val endToEnd = mutable.LinkedHashMap.empty[String, Double]
    endToEnd("setup_s") = setupS
    for (m <- Workloads.methods) endToEnd(s"first_emission_s.$m") = Measure.median(firsts(m).toSeq)
    for (m <- Workloads.methods) endToEnd(s"time_to_ec10_s.$m") = Measure.median(ends(m).toSeq)
    endToEnd("auc_star_at_10") = quality.values.map(_.aucStar10).sum / quality.size
    endToEnd("heap_mb") = heap.values.max

    val layers = mutable.LinkedHashMap.empty[String, Double]
    if (traced) {
      layers("gc.ms") = (gcMs1 - gcMs0).toDouble
      layers("gc.count") = (gcN1 - gcN0).toDouble
      for (m <- Workloads.methods) {
        layers(s"trace.overhead_s.$m") = Measure.median(tracedEnds(m).toSeq) - Measure.median(ends(m).toSeq)
        layers(s"trace.first_emission_gap_ms.$m") = Measure.median(gaps(m).toSeq)
        layers(s"heap_mb.$m") = heap(m)
        val q = quality(m)
        layers(s"quality.auc_star_at_1.$m") = q.aucStar1
        layers(s"quality.auc_star_at_10.$m") = q.aucStar10
        layers(s"quality.recall_at_ec10.$m") = q.recallAtEc10
      }
      val sparkOf = () => { if (spark.isEmpty) spark = Some(startSpark()); spark.get }
      layers ++= new Layers(w, ds, budget, tracer, sparkOf, record).probe(recipes, reference.toMap, quality.toMap)
      layers("data.gen_ms") = Measure.median(setupParts) * 1000
      layers("data.profiles") = pc.size
      layers("data.gt_pairs") = ds.gt.size
    }

    val ok = failedOps == 0 && endToEnd.values.forall(v => !v.isNaN && !v.isInfinite)
    val values = if (traced) layers else endToEnd
    val missing = printed.map(_._1).filterNot(values.contains)
    require(missing.isEmpty, s"metrics not measured: ${missing.mkString(", ")}")
    val metrics = printed.map { case (name, unit) =>
      name -> Json.obj("value" -> Json.num(values(name)), "unit" -> Json.str(unit)) }
    val result = Json.obj(
      "correct" -> Json.bool(ok), "attempted" -> Json.num(attempted.toLong), "failed" -> Json.num(failedOps.toLong),
      "metrics" -> Json.obj(metrics: _*))

    val env = environment(rounds)
    val full = Json.obj(
      "environment" -> env,
      "failures" -> Json.arr(failures.toSeq.map(Json.str)),
      "end_to_end" -> Json.obj(endToEnd.toSeq.map { case (k, v) => k -> Json.num(v) }: _*),
      "per_layer" -> Json.obj(layers.toSeq.map { case (k, v) => k -> Json.num(v) }: _*),
      "samples" -> Json.obj(Workloads.methods.map { m =>
        m -> Json.obj("first_emission_s" -> Json.arr(firsts(m).toSeq.map(Json.num)),
                      "time_to_ec10_s" -> Json.arr(ends(m).toSeq.map(Json.num)))
      }: _*),
      "first_emission_breakdown" -> breakdown(),
      "trace" -> tracer.toJson)
    val file = new File(outDir, s"${w.name}-$seed-trace${if (traced) 1 else 0}.json")
    Files.write(file.toPath, full.getBytes(StandardCharsets.UTF_8))
    log.println(s"[perfbench] wrote ${file.getPath}")
    println(env)
    result
  }

  /** Generate the dataset three times; returns the last one and each
    * generation's seconds.
    */
  private def setUp(): (ErDataset, Seq[Double]) = {
    var ds: ErDataset = null
    val times = (1 to 3).map { _ =>
      val t0 = now()
      ds = w.generate(scale, seed)
      secs(now() - t0)
    }
    (ds, times)
  }

  /** Each method's first-emission span of the last traced round, split into
    * its direct children, with the uncovered remainder as the gap.
    */
  private def breakdown(): String = Json.obj(Workloads.methods.flatMap { m =>
    tracer.named(m).headOption.map { root =>
      val kids = tracer.children(root)
      m -> Json.obj(
        ("first_emission_ms" -> Json.num(root.durNs / 1e6)) +:
          kids.map(k => k.name + "_ms" -> Json.num(k.durNs / 1e6)) :+
          ("gap_ms" -> Json.num((root.durNs - kids.map(_.durNs).sum) / 1e6)): _*)
    }
  }: _*)

  private def environment(rounds: Int): String = {
    val rt = Runtime.getRuntime
    val sparkConf = spark.map(_.conf.getAll.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.str(v) }).getOrElse(Nil)
    Json.obj(
      "workload" -> Json.str(w.name), "seed" -> Json.num(seed), "scale" -> Json.num(scale),
      "seconds" -> Json.num(seconds.toLong), "trace" -> Json.bool(traced), "rounds" -> Json.num(rounds.toLong),
      "match_fn" -> Json.str(w.matchFn.name), "nproc" -> Json.num(rt.availableProcessors.toLong),
      "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
      "xmx_mb" -> Json.num(rt.maxMemory / 1048576),
      "gc" -> Json.arr(ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq.map(b => Json.str(b.getName))),
      "jvm_args" -> Json.arr(ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq.map(Json.str)),
      "spark_conf" -> Json.obj(sparkConf: _*),
      "git_commit" -> Json.str(sys.props.getOrElse("perfbench.commit", "unknown")))
  }
}
