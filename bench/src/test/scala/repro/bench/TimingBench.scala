package repro.bench

import repro.SparkSpec
import repro.data.HeterogeneousData
import repro.eval.Experiments
import repro.jobs.TimeEfficiency

/** Fig. 13 — time-efficiency study (Sec. 7.3): initialization time and mean
  * per-comparison time on movies and dbpedia with the cheap (jaccard-sim)
  * and expensive (edit-dist) match functions. SA-PSAB is excluded, as in the
  * paper (an order of magnitude slower); freebase is excluded, as in the
  * paper (requires iterative matchers).
  */
class TimingBench extends SparkSpec {

  private lazy val timed =
    Experiments.runTimings(Seq(HeterogeneousData.movies(0.1), HeterogeneousData.dbpedia(1.0)))

  test("print the timing table (Fig. 13)") {
    println(TimeEfficiency.report(timed))
  }

  test("every method emits comparisons under both match functions") {
    assert(timed.forall(_.emitted > 0))
  }

  test("initialization times are method-dependent, with SA-PSN cheapest") {
    for (ds <- Seq("movies", "dbpedia")) {
      val byMethod = timed.filter(t => t.dataset == ds && t.matchFn == "jaccard-sim")
        .map(t => t.method -> t.initMillis).toMap
      // the baseline only sorts the Neighbor List — it cannot be the slowest
      assert(byMethod("SA-PSN") < byMethod.values.max,
        s"$ds: SA-PSN init ${byMethod("SA-PSN")} vs ${byMethod}")
    }
  }

  test("the expensive match function dominates comparison time") {
    val ed = timed.filter(_.matchFn == "edit-dist").map(_.comparisonMicros)
    val js = timed.filter(_.matchFn == "jaccard-sim").map(_.comparisonMicros)
    assert(ed.sum / ed.size > js.sum / js.size,
      s"edit-dist mean ${ed.sum / ed.size}µs vs jaccard ${js.sum / js.size}µs")
  }

  test("initialization is independent of the match function (within noise)") {
    for (ds <- Seq("movies", "dbpedia"); m <- Seq("PBS", "PPS")) {
      val ts = timed.filter(t => t.dataset == ds && t.method == m).map(_.initMillis)
      assert(ts.size === 2)
      // same init work under both match functions — allow generous jitter
      assert(ts.max < ts.min * 20 + 2000, s"$m on $ds: $ts")
    }
  }
}
