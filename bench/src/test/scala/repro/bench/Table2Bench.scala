package repro.bench

import repro.SparkSpec
import repro.data.Datasets
import repro.jobs.Table2Characteristics

/** Table 2 — dataset characteristics of the 7 synthetic analogs at benchmark
  * scale. Prints the table recorded in EXPERIMENTS.md and pins the shapes.
  */
class Table2Bench extends SparkSpec {

  private lazy val dss = Datasets.structured() ++ Datasets.heterogeneous()

  test("Table 2: print dataset characteristics") {
    println(Table2Characteristics.report(dss))
  }

  test("structured shapes match the paper") {
    val byName = dss.map(ds => ds.name -> ds).toMap
    assert(byName("census").pc.size === 841)
    assert(byName("census").gt.size === 344)
    assert(byName("restaurant").pc.size === 864)
    assert(byName("restaurant").gt.size === 112)
    assert(byName("cora").pc.size === 1300)
    assert(byName("cora").gt.size === 15875)
    assert(byName("cddb").pc.size === 9800)
    assert(byName("cddb").gt.size === 300)
  }

  test("heterogeneous shapes follow the paper's ratios") {
    val byName = dss.map(ds => ds.name -> ds).toMap
    val movies = byName("movies")
    assert(movies.pc.profiles.count(_.source == 1) === 2800)
    assert(movies.pc.profiles.count(_.source == 2) === 2300)
    assert(movies.gt.size === 2300)
    val dbp = byName("dbpedia")
    assert(dbp.pc.profiles.count(_.source == 1) === 1200)
    assert(dbp.pc.profiles.count(_.source == 2) === 2200)
    assert(dbp.gt.size === 893)
    val fb = byName("freebase")
    assert(fb.pc.profiles.count(_.source == 1) === 1400)
    assert(fb.pc.profiles.count(_.source == 2) === 1230)
    assert(fb.gt.size === 500)
  }

  test("average name-value pairs per profile are in the paper's range") {
    val byName = dss.map(ds => ds.name -> ds).toMap
    def pBar(name: String): Double = {
      val pc = byName(name).pc
      pc.profiles.map(_.attrs.size).sum.toDouble / pc.size
    }
    assert(pBar("census") === 5.0)       // paper: 4.65
    assert(pBar("restaurant") === 5.0)   // paper: 5.00
    assert(pBar("cora") > 4 && pBar("cora") < 7)     // paper: 5.53
    assert(pBar("cddb") > 14 && pBar("cddb") < 24)   // paper: 18.75
    assert(pBar("movies") > 4 && pBar("movies") < 9) // paper: 7.11
    assert(pBar("dbpedia") === 15.0)     // paper: 15.47
    assert(pBar("freebase") > 9 && pBar("freebase") < 25) // paper: 24.54 / 11
  }
}
