package repro.bench

import repro.SparkSpec
import repro.data.Datasets
import repro.eval.{Experiments, Report}

/** Fig. 11 / Fig. 12 — recall progressiveness on the three heterogeneous
  * Clean-clean datasets: per-dataset AUC*@{1,5,10,20} and the mean, for
  * SA-PSN, SA-PSAB, LS-PSN, GS-PSN (w_max = 200, memory-budgeted on
  * freebase) and the equality-based PBS / PPS.
  *
  * Assertions pin Sec. 7.2: every advanced method beats the naïve baseline
  * except the similarity-based ones on freebase (URI noise makes the sorted
  * Neighbor List meaningless), PPS is the overall best performer, and PBS is
  * the robust method on freebase.
  */
class HeterogeneousAucBench extends SparkSpec {

  private val ecStars = Seq(1.0, 5.0, 10.0, 20.0)

  private lazy val results =
    Experiments.runAll(Datasets.heterogeneous(), maxEcStar = 30.0)

  private def mean(method: String, e: Double): Double = {
    val rs = results.filter(_.method == method)
    rs.map(_.aucStar(e)).sum / rs.size
  }

  private def on(ds: String, method: String, e: Double): Double =
    results.find(r => r.dataset == ds && r.method == method).get.aucStar(e)

  test("print the heterogeneous AUC* tables (Fig. 11 and Fig. 12)") {
    println("=== Fig. 11 (table form): AUC*@ec* per heterogeneous dataset ===")
    println(Report.aucTable(results, ecStars))
    println()
    println("=== Fig. 12: mean AUC*@ec* over the heterogeneous datasets ===")
    println(Report.meanAucTable(results, ecStars))
  }

  test("PPS is the overall best performer (paper Fig. 12)") {
    for (e <- Seq(5.0, 10.0, 20.0); other <- Seq("SA-PSN", "SA-PSAB", "LS-PSN", "GS-PSN", "PBS"))
      assert(mean("PPS", e) >= mean(other, e),
        s"PPS (${mean("PPS", e)}) should lead $other (${mean(other, e)}) at ec*=$e")
  }

  test("equality-based methods beat the naïve baseline on every dataset") {
    for (ds <- Seq("movies", "dbpedia", "freebase"); m <- Seq("PBS", "PPS"); e <- Seq(5.0, 10.0))
      assert(on(ds, m, e) > on(ds, "SA-PSN", e), s"$m on $ds at ec*=$e")
  }

  test("similarity-based methods work on movies/dbpedia but fail on freebase") {
    // on the token-level-noisy but name-bearing datasets they clearly win
    for (ds <- Seq("movies", "dbpedia"); m <- Seq("LS-PSN", "GS-PSN"))
      assert(on(ds, m, 10) > on(ds, "SA-PSN", 10), s"$m on $ds")
    // on freebase the URI Neighbor List is meaningless — both collapse
    for (m <- Seq("LS-PSN", "GS-PSN")) {
      assert(on("freebase", m, 10) < 0.3, s"$m should collapse on freebase")
      assert(on("freebase", m, 20) < on("freebase", "PBS", 20),
        s"$m should trail PBS on freebase")
    }
  }

  test("PBS is robust on freebase (paper Fig. 11c)") {
    for (e <- Seq(10.0, 20.0)) {
      assert(on("freebase", "PBS", e) > on("freebase", "SA-PSN", e))
      assert(on("freebase", "PBS", e) > on("freebase", "LS-PSN", e))
      assert(on("freebase", "PBS", e) > on("freebase", "GS-PSN", e))
    }
  }

  test("the budgeted GS-PSN terminates early on freebase with capped recall") {
    val gs = results.find(r => r.dataset == "freebase" && r.method == "GS-PSN").get
    assert(gs.finalRecall < 0.5, s"GS-PSN freebase recall = ${gs.finalRecall}")
  }

  test("SA-PSAB is ineffective at scale (huge suffix blocks)") {
    for (e <- Seq(5.0, 10.0))
      assert(mean("SA-PSAB", e) < mean("PPS", e) / 2)
  }
}
