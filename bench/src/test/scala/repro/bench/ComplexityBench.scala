package repro.bench

import repro.SparkSpec
import repro.blocking.{BlockFiltering, BlockPurging, ProfileIndex, TokenBlocking}
import repro.core._
import repro.data.HeterogeneousData
import repro.eval.{ErDataset, Experiments}

/** Table 1 — space/time complexity probe. The paper's Table 1 is analytic;
  * this bench verifies the claimed *scaling shape* empirically: doubling the
  * input size must not blow up any method's initialization super-linearly
  * beyond the n·log n / graph-size bounds, and the core data structures grow
  * linearly with |P|.
  */
class ComplexityBench extends SparkSpec {

  private def initTime(m: ProgressiveMethod): Double = {
    val t0 = System.nanoTime()
    val it = m.emissions
    if (it.hasNext) it.next()
    (System.nanoTime() - t0) / 1e6
  }

  private def dataset(scale: Double): ErDataset = HeterogeneousData.freebase(scale)

  private def ms[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  test("Table 1: print measured initialization scaling") {
    println("=== Table 1 probe: init time (ms) vs |P| (freebase-like) ===")
    println(f"${"method"}%-9s ${"|P|=s1"}%-10s ${"|P|=s2"}%-10s ${"ratio"}%-7s")
    for ((m1, m2) <- Experiments.aucMatrix(dataset(0.5))
           .zip(Experiments.aucMatrix(dataset(1.0)))) {
      val t1 = initTime(m1); val t2 = initTime(m2)
      println(f"${m1.name}%-9s $t1%-10.1f $t2%-10.1f ${t2 / math.max(t1, 0.1)}%-7.2f")
    }
  }

  test("space: the Neighbor List and Position Index grow linearly with |P|") {
    val small = NeighborList.build(dataset(0.5).pc)
    val large = NeighborList.build(dataset(1.0).pc)
    val ratio = large.size.toDouble / small.size
    assert(ratio > 1.5 && ratio < 2.6, s"NL growth ratio $ratio") // ~2× for 2× profiles
    // Position Index accounts for every placement exactly once at both scales
    for (nl <- Seq(small, large)) {
      val positions = nl.positionIndex.map(_.length.toLong).sum
      assert(positions === nl.size.toLong)
    }
  }

  test("per stage: the Neighbor List and the GS-PSN Comparison List grow linearly") {
    // Table 1: the Neighbor List holds one placement per distinct profile
    // token, O(|P|); GS-PSN stores at most one comparison per (position,
    // window size), O(|NL|·w_max).
    val wMax = 20
    val stages = for (scale <- Seq(0.5, 1.0)) yield {
      val pc = dataset(scale).pc
      val (nl, nlMs) = ms(NeighborList.build(pc))
      val (list, listMs) = ms(new GSPSN(pc, nl, wMax).globalComparisons())
      assert(list.size.toLong <= nl.size.toLong * wMax)
      (pc.size, nl.size, list.size, nlMs, listMs)
    }
    println("=== Table 1 per stage (freebase-like, GS-PSN w_max 20) ===")
    println(f"${"|P|"}%-7s ${"|NL|"}%-8s ${"list"}%-9s ${"nl.build ms"}%-12s ${"gspsn.list ms"}%-13s")
    for ((p, nl, list, nlMs, listMs) <- stages)
      println(f"$p%-7d $nl%-8d $list%-9d $nlMs%-12.1f $listMs%-13.1f")
    val Seq((_, nl1, list1, _, _), (_, nl2, list2, _, _)) = stages
    val nlRatio = nl2.toDouble / nl1
    assert(nlRatio > 1.5 && nlRatio < 2.6, s"NL growth ratio $nlRatio")
    // list growth relative to |NL|·w_max growth (w_max is fixed)
    val listRatio = list2.toDouble / list1 / nlRatio
    assert(listRatio > 0.8 && listRatio < 1.25, s"Comparison List growth over |NL| growth $listRatio")
  }

  test("per stage: the equality-based structures grow linearly") {
    // Table 1: Token Blocking holds at most one membership per Neighbor List
    // placement, SA-PSAB one per suffix of a placed token (l_min 4), and the
    // PPS neighbourhood kernel adds one contribution per (block, member,
    // member) of the Profile Index, Σ|b|²; each must grow with its input.
    val lMin = 4
    final case class Stage(p: Int, nl: Long, members: Long, suffixes: Long, suffixMembers: Long,
        kernelWork: Long, ms: Seq[Double])
    val stages = for (scale <- Seq(0.5, 1.0)) yield {
      val pc = dataset(scale).pc
      val placements = Tokenizer.placements(pc)
      val (tb, tbMs) = ms(TokenBlocking.build(pc))
      val (filtered, filterMs) = ms(BlockFiltering.filter(BlockPurging.purge(tb, 0.1), 0.8))
      val (pi, piMs) = ms(ProfileIndex.build(filtered))
      val (suffixBlocks, sabMs) = ms(new SAPSAB(pc, lMin).orderedBlocks)
      val (_, ppsMs) = ms(new PPS(pc, pi).initialize())
      val stage = Stage(
        pc.size,
        placements.size.toLong,
        tb.blocks.iterator.map(_.size.toLong).sum,
        placements.iterator.map { case (t, _) => math.max(0, t.length - lMin + 1).toLong }.sum,
        suffixBlocks.iterator.map(_.profiles.length.toLong).sum,
        pi.orderedBlocks.iterator.map(b => b.size.toLong * b.size).sum,
        Seq(tbMs, filterMs, piMs, sabMs, ppsMs))
      assert(stage.members <= stage.nl, s"sum|b| ${stage.members} > |NL| ${stage.nl}")
      stage
    }
    println("=== Table 1 per stage (freebase-like, equality-based) ===")
    println(f"${"|P|"}%-7s ${"|NL|"}%-8s ${"sum|b|"}%-8s ${"suffixes"}%-9s ${"SA-PSAB sum|b|"}%-15s ${"PI sum|b|^2"}%-12s " +
      f"${"tb.build"}%-9s ${"filter"}%-7s ${"pi.build"}%-9s ${"sapsab.blocks"}%-14s ${"pps.init"}%-8s (ms)")
    for (s <- stages)
      println(f"${s.p}%-7d ${s.nl}%-8d ${s.members}%-8d ${s.suffixes}%-9d ${s.suffixMembers}%-15d ${s.kernelWork}%-12d " +
        f"${s.ms(0)}%-9.1f ${s.ms(1)}%-7.1f ${s.ms(2)}%-9.1f ${s.ms(3)}%-14.1f ${s.ms(4)}%-8.1f")
    val Seq(small, large) = stages
    def growth(f: Stage => Long): Double = f(large).toDouble / f(small)
    for ((structure, ratio) <- Seq(
           "sum|b| over |NL|" -> growth(_.members) / growth(_.nl),
           "SA-PSAB memberships over suffix placements" -> growth(_.suffixMembers) / growth(_.suffixes),
           "Profile Index sum|b|^2 over |NL|" -> growth(_.kernelWork) / growth(_.nl)))
      assert(ratio > 0.8 && ratio < 1.25, s"$structure growth $ratio")
  }

  test("space: the Profile Index grows linearly with |P|") {
    val piS = repro.blocking.TokenBlockingWorkflow.profileIndex(dataset(0.5).pc)
    val piL = repro.blocking.TokenBlockingWorkflow.profileIndex(dataset(1.0).pc)
    def entries(pi: repro.blocking.ProfileIndex, n: Int): Long =
      (0 until n).map(pi.blocksOf(_).length.toLong).sum
    val ratio = entries(piL, dataset(1.0).pc.size).toDouble /
      entries(piS, dataset(0.5).pc.size)
    assert(ratio > 1.4 && ratio < 3.0, s"Profile Index growth ratio $ratio")
  }

  test("time: doubling |P| scales no method's init catastrophically") {
    for ((m1, m2) <- Experiments.aucMatrix(dataset(0.5))
           .zip(Experiments.aucMatrix(dataset(1.0)))) {
      val t1 = math.max(initTime(m1), 5.0) // floor: timer noise on tiny inputs
      val t2 = initTime(m2)
      assert(t2 < t1 * 30 + 3000, s"${m1.name}: $t1 ms → $t2 ms")
    }
  }

  test("emission is far cheaper than initialization for the advanced methods") {
    val ds = dataset(1.0)
    for (m <- Experiments.aucMatrix(ds) if m.name != "SA-PSAB") {
      val it = m.emissions
      val t0 = System.nanoTime(); if (it.hasNext) it.next()
      val init = System.nanoTime() - t0
      var k = 0
      val t1 = System.nanoTime()
      while (k < 200 && it.hasNext) { it.next(); k += 1 }
      val perEmission = (System.nanoTime() - t1).toDouble / math.max(k, 1)
      assert(perEmission < math.max(init.toDouble, 1e6), s"${m.name}")
    }
  }
}
