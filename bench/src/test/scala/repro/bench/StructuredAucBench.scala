package repro.bench

import repro.SparkSpec
import repro.data.Datasets
import repro.eval.{Experiments, Report}

/** Fig. 9 / Fig. 10 — recall progressiveness on the four structured datasets:
  * per-dataset AUC*@{1,5,10,20} and the mean over datasets, for PSN, SA-PSN,
  * SA-PSAB, LS-PSN, GS-PSN (w_max = 20), PBS, PPS.
  *
  * The assertions pin the paper's qualitative findings (Sec. 7.1): the
  * advanced schema-agnostic methods beat both the naïve ones and the
  * schema-based PSN on average, similarity-based LS/GS-PSN lead on
  * structured data, and census is the one dataset where PSN beats PBS.
  */
class StructuredAucBench extends SparkSpec {

  private val ecStars = Seq(1.0, 5.0, 10.0, 20.0)

  private lazy val results =
    Experiments.runAll(Datasets.structured(), maxEcStar = 30.0)

  private def mean(method: String, e: Double): Double = {
    val rs = results.filter(_.method == method)
    rs.map(_.aucStar(e)).sum / rs.size
  }

  private def on(ds: String, method: String, e: Double): Double =
    results.find(r => r.dataset == ds && r.method == method).get.aucStar(e)

  test("print the structured AUC* tables (Fig. 9 and Fig. 10)") {
    println("=== Fig. 9 (table form): AUC*@ec* per structured dataset ===")
    println(Report.aucTable(results, ecStars))
    println()
    println("=== Fig. 10: mean AUC*@ec* over the structured datasets ===")
    println(Report.meanAucTable(results, ecStars))
  }

  test("every advanced method beats both naïve methods on mean AUC*@10") {
    for (adv <- Seq("LS-PSN", "GS-PSN", "PBS", "PPS"); naive <- Seq("SA-PSN", "SA-PSAB"))
      assert(mean(adv, 10) > mean(naive, 10),
        s"$adv (${mean(adv, 10)}) should beat $naive (${mean(naive, 10)})")
  }

  test("similarity-based LS/GS-PSN are the top performers on structured data") {
    for (e <- Seq(5.0, 10.0)) {
      val best = math.max(mean("LS-PSN", e), mean("GS-PSN", e))
      for (other <- Seq("PSN", "SA-PSN", "SA-PSAB", "PBS"))
        assert(best >= mean(other, e), s"LS/GS-PSN should lead at ec*=$e over $other")
    }
  }

  test("the advanced methods beat the schema-based PSN on mean AUC*") {
    for (e <- Seq(5.0, 10.0)) {
      assert(mean("LS-PSN", e) > mean("PSN", e))
      assert(mean("GS-PSN", e) > mean("PSN", e))
      assert(mean("PPS", e) > mean("PSN", e))
    }
  }

  test("census: PSN beats PBS but not LS/GS-PSN (paper Fig. 9a)") {
    assert(on("census", "PSN", 10) > on("census", "PBS", 10))
    assert(math.max(on("census", "LS-PSN", 10), on("census", "GS-PSN", 10)) >
      on("census", "PSN", 10) * 0.9)
  }

  test("restaurant: PPS is near-ideal early (paper Fig. 9b)") {
    assert(on("restaurant", "PPS", 1) > 0.5)
    assert(on("restaurant", "PPS", 10) > on("restaurant", "PSN", 10))
  }

  test("areas accumulate with ec* and AUC* stays normalized") {
    import repro.eval.Metrics
    for (r <- results) {
      // the raw area grows with the horizon; the normalized AUC* stays in [0,1]
      assert(Metrics.auc(r.curve, r.gtSize, 20.0) >= Metrics.auc(r.curve, r.gtSize, 1.0) - 1e-9,
        s"${r.method} on ${r.dataset}")
      for (e <- ecStars)
        assert(r.aucStar(e) >= 0.0 && r.aucStar(e) <= 1.0 + 1e-9, s"${r.method} on ${r.dataset}")
    }
  }

  test("naïve SA-PSN stays far from ideal on every structured dataset") {
    for (ds <- Seq("census", "restaurant", "cora", "cddb"))
      assert(on(ds, "SA-PSN", 10) < 0.9, s"SA-PSN unexpectedly strong on $ds")
  }
}
