package repro.bench

import repro.SparkSpec
import repro.blocking.{BlockFiltering, BlockPurging, ProfileIndex, TokenBlocking, TokenIndex}
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

  /** Method `name` on `ds`, built with `Experiments.method`, its own
    * Neighbor List or Token Blocking Workflow included, and pulled to its
    * first emission; with the ms that took.
    */
  private def initialized(ds: ErDataset, name: String): (Iterator[Comparison], Double) = {
    val t0 = System.nanoTime()
    val it = Experiments.method(ds, name).emissions
    if (it.hasNext) it.next()
    (it, (System.nanoTime() - t0) / 1e6)
  }

  private def initTime(ds: ErDataset, name: String): Double = initialized(ds, name)._2

  private def dataset(scale: Double): ErDataset = HeterogeneousData.freebase(scale)

  private def ms[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  test("Table 1: print measured initialization scaling") {
    println("=== Table 1 probe: init time (ms) vs |P| (freebase-like) ===")
    println(f"${"method"}%-9s ${"|P|=s1"}%-10s ${"|P|=s2"}%-10s ${"ratio"}%-7s")
    val (small, large) = (dataset(0.5), dataset(1.0))
    for (name <- Experiments.aucMethods(small)) {
      val t1 = initTime(small, name); val t2 = initTime(large, name)
      println(f"$name%-9s $t1%-10.1f $t2%-10.1f ${t2 / math.max(t1, 0.1)}%-7.2f")
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

  test("per stage: the token index places every Neighbor List position, at 1 range and at one per processor") {
    // Table 1 charges tokenizing and sorting the tokens to initialization;
    // the Neighbor List is sorted from the token index, one position per
    // placement. Both build in contiguous ranges of profiles; the times
    // are the median of 9 builds after 5 warm-up builds.
    def median(body: => Unit): Double = {
      for (_ <- 1 to 5) body
      Seq.fill(9)(ms(body)._2).sorted.apply(4)
    }
    val processors = Runtime.getRuntime.availableProcessors
    val stages = for (scale <- Seq(0.5, 1.0)) yield {
      val pc = dataset(scale).pc
      val placements = TokenIndex(pc).tokenIds.length
      val nl = NeighborList.build(pc)
      assert(placements === nl.size, s"|P|=${pc.size}: $placements placements, |NL| ${nl.size}")
      val times = for (ranges <- Seq(1, processors)) yield
        (median(Reference.tokenIndex(pc, ranges)), median(Reference.neighborList(pc, ranges)))
      (pc.size, placements, times)
    }
    println(s"=== Table 1 per stage (freebase-like, tokenize and nl.build at 1 and $processors ranges) ===")
    println(f"${"|P|"}%-7s ${"placements"}%-11s ${"tokenize 1"}%-11s ${"nl.build 1"}%-11s " +
      f"${s"tokenize $processors"}%-11s ${s"nl.build $processors"}%-11s (ms)")
    for ((p, placements, Seq((tok1, nl1), (tokN, nlN))) <- stages)
      println(f"$p%-7d $placements%-11d $tok1%-11.1f $nl1%-11.1f $tokN%-11.1f $nlN%-11.1f")
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

  test("per stage: SA-PSAB groups a small share of its suffix memberships before its first emission") {
    // Layer l of the suffix forest groups one membership per placed token of
    // at least l characters; the first emission builds the layers from the
    // longest token down to the first one holding a comparison.
    val lMin = 4
    val stages = for (scale <- Seq(0.5, 1.0)) yield {
      val pc = dataset(scale).pc
      val lengths = Tokenizer.placements(pc).map(_._1.length)
      val longest = lengths.max
      def grouped(layers: Int): Long =
        (longest until longest - layers by -1).iterator.map(l => lengths.count(_ >= l).toLong).sum
      val (_, fullMs) = ms(new SAPSAB(pc, lMin).orderedBlocks)
      val first = new SAPSAB(pc, lMin)
      val (_, firstMs) = ms(first.emissions.next())
      (pc.size, first.layersBuilt, grouped(first.layersBuilt), grouped(longest - lMin + 1), firstMs, fullMs)
    }
    println("=== Table 1 per stage (freebase-like, SA-PSAB l_min 4) ===")
    println(f"${"|P|"}%-7s ${"layers"}%-7s ${"grouped first"}%-14s ${"grouped full"}%-13s ${"first ms"}%-9s ${"full ms"}%-8s")
    for ((p, layers, before, full, firstMs, fullMs) <- stages)
      println(f"$p%-7d $layers%-7d $before%-14d $full%-13d $firstMs%-9.1f $fullMs%-8.1f")
    // Measured: 458 of 94,375 and 801 of 187,561 (0.49 % and 0.43 %); the
    // bound is twice the larger share.
    for ((p, _, before, full, _, _) <- stages) {
      val share = before.toDouble / full
      assert(share < 0.0097, s"|P|=$p: $before of $full suffix memberships grouped before the first emission")
    }
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
    val (small, large) = (dataset(0.5), dataset(1.0))
    for (name <- Experiments.aucMethods(small)) {
      val t1 = math.max(initTime(small, name), 5.0) // floor: timer noise on tiny inputs
      val t2 = initTime(large, name)
      assert(t2 < t1 * 30 + 3000, s"$name: $t1 ms → $t2 ms")
    }
  }

  test("emission is far cheaper than initialization for the advanced methods") {
    val ds = dataset(1.0)
    for (name <- Experiments.aucMethods(ds) if name != "SA-PSAB") {
      val (it, initMs) = initialized(ds, name)
      var k = 0
      val t1 = System.nanoTime()
      while (k < 200 && it.hasNext) { it.next(); k += 1 }
      val perEmissionMs = (System.nanoTime() - t1) / 1e6 / math.max(k, 1)
      assert(perEmissionMs < math.max(initMs, 1.0), s"$name: init $initMs ms, $perEmissionMs ms per emission")
    }
  }
}
