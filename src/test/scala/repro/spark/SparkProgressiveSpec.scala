package repro.spark

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.blocking.TokenBlockingWorkflow
import repro.core._
import repro.data.{HeterogeneousData, StructuredData}
import repro.eval.Metrics

class SparkProgressiveSpec extends SparkSpec {

  private def driverPbs(pc: ProfileCollection): Iterator[Comparison] =
    new PBS(pc, TokenBlockingWorkflow.profileIndex(pc)).emissions

  /** `read` applied to the distributed PBS frame of `pc`, which is then
    * unpersisted.
    */
  private def withPbs[T](pc: ProfileCollection)(read: DataFrame => T): T = {
    val ordered = SparkProgressive.pbs(spark, pc)
    try read(ordered) finally ordered.unpersist(blocking = true)
  }

  private def driverGsPsn(pc: ProfileCollection, wMax: Int): Iterator[Comparison] =
    new GSPSN(pc, NeighborList.build(pc), wMax).emissions

  /** Assert that two streams are one sequence of (i, j, raw weight bits),
    * reporting the first position where they part.
    */
  private def assertSameStream(distributed: Iterator[Comparison], driver: Iterator[Comparison], clue: String): Unit = {
    def exact(cs: Iterator[Comparison]) = cs.map(c => (c.i, c.j, java.lang.Double.doubleToRawLongBits(c.weight))).toVector
    val (s, d) = (exact(distributed), exact(driver))
    for (k <- (0 until math.max(s.size, d.size)).find(k => s.lift(k) != d.lift(k)))
      fail(s"$clue: spark ${s.size} vs driver ${d.size} comparisons, first difference at $k: ${s.lift(k)} vs ${d.lift(k)}")
  }

  test("end-to-end distributed PBS equals the driver-side PBS on census") {
    val ds = StructuredData.census()
    val sparkPairs = withPbs(ds.pc)(SparkProgressive.emissions(_).map(_.pair).toVector)
    val local = new PBS(ds.pc, TokenBlockingWorkflow.profileIndex(ds.pc))
    val localPairs = local.emissions.map(_.pair).toVector
    assert(sparkPairs.toSet === localPairs.toSet)
    assert(sparkPairs.size === localPairs.size) // no repeats on either side
  }

  test("distributed PBS recall progressiveness tracks the local one") {
    val ds = StructuredData.census()
    val sparkCurve = withPbs(ds.pc)(df => Metrics.recallCurve(SparkProgressive.emissions(df), ds.gt, 3 * ds.gt.size))
    val localCurve = Metrics.recallCurve(
      new PBS(ds.pc, TokenBlockingWorkflow.profileIndex(ds.pc)).emissions, ds.gt, 3 * ds.gt.size)
    // identical pair sets per block ⇒ nearly identical curves; allow a small
    // divergence from floating-point tie reordering inside blocks
    assert(math.abs(sparkCurve.last - localCurve.last) < 0.05)
    val aucS = Metrics.aucStar(sparkCurve, ds.gt.size, 3.0)
    val aucL = Metrics.aucStar(localCurve, ds.gt.size, 3.0)
    assert(math.abs(aucS - aucL) < 0.05, s"spark=$aucS local=$aucL")
  }

  test("end-to-end distributed GS-PSN matches the driver-side GS-PSN") {
    val pc = PaperExample.pc
    val sparkPairs = SparkProgressive.emissions(SparkProgressive.gsPsn(spark, pc, wMax = 4))
      .map(_.pair).toVector
    val localPairs = new GSPSN(pc, NeighborList.build(pc), wMax = 4)
      .globalComparisons().map(_.pair).toVector
    assert(sparkPairs.toSet === localPairs.toSet)
  }

  test("emissions iterator preserves the DataFrame order") {
    val pc = PaperExample.pc
    val df = SparkProgressive.gsPsn(spark, pc, wMax = 4)
    val fromDf = df.collect().map(r => (r.getInt(0), r.getInt(1))).toVector
    val fromIt = SparkProgressive.emissions(df).map(_.pair).toVector
    assert(fromIt === fromDf)
  }

  test("distributed PBS on a Clean-clean dataset emits cross-source pairs only") {
    val ds = repro.data.HeterogeneousData.movies(0.005)
    withPbs(ds.pc)(SparkProgressive.emissions(_).take(500).foreach(c => assert(ds.pc.source(c.i) != ds.pc.source(c.j))))
  }

  /** |P| = 0 and |P| = 1 for both ER types, profiles without a token, and a
    * Clean-clean collection with a single source: each stream is empty or
    * valid on both paths.
    */
  private val degenerate: Seq[(String, ProfileCollection)] = {
    def profile(id: Int, source: Int, value: String) = Profile(id, source, Vector("v" -> value))
    Seq(
      "|P| = 0, Dirty"       -> ProfileCollection(Vector.empty, DirtyEr),
      "|P| = 0, Clean-clean" -> ProfileCollection(Vector.empty, CleanCleanEr),
      "|P| = 1, Dirty"       -> ProfileCollection(Vector(profile(0, 0, "alpha beta")), DirtyEr),
      "|P| = 1, Clean-clean" -> ProfileCollection(Vector(profile(0, 1, "alpha beta")), CleanCleanEr),
      "token-free profiles"  -> ProfileCollection(Vector(profile(0, 0, ""), profile(1, 0, "--"), profile(2, 0, "?! ;")), DirtyEr),
      "single-source Clean-clean" -> ProfileCollection(
        Vector(profile(0, 1, "alpha beta"), profile(1, 1, "alpha gamma"), profile(2, 1, "beta gamma")), CleanCleanEr))
  }

  test("distributed PBS emits the driver's PBS stream, weights bit for bit, degenerate collections included") {
    val cases = Seq("census" -> StructuredData.census().pc, "movies" -> HeterogeneousData.movies(0.005).pc) ++ degenerate
    for ((name, pc) <- cases)
      withPbs(pc)(df => assertSameStream(SparkProgressive.emissions(df), driverPbs(pc), name))
  }

  test("distributed PBS leaves nothing cached once the caller unpersists its frame") {
    val sc = spark.sparkContext
    for ((name, pc) <- ("census" -> StructuredData.census().pc) +: degenerate) {
      val cached = sc.getPersistentRDDs.keySet
      assert(withPbs(pc)(SparkProgressive.emissions(_).size) === driverPbs(pc).size, name)
      assert(sc.getPersistentRDDs.keySet === cached, name)
    }
  }

  test("distributed GS-PSN emits the driver's GS-PSN stream, weights bit for bit, degenerate collections included") {
    val cases = Seq(("paper example", PaperExample.pc, 4), ("census", StructuredData.census().pc, 20)) ++
      degenerate.map { case (name, pc) => (name, pc, 3) }
    for ((name, pc, wMax) <- cases)
      assertSameStream(SparkProgressive.emissions(SparkProgressive.gsPsn(spark, pc, wMax)), driverGsPsn(pc, wMax), name)
  }
}
