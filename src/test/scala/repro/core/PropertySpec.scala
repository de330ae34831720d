package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.blocking.{
  Block, BlockCollection, BlockFiltering, BlockPurging, BlockingGraph, ProfileIndex, TokenBlocking, TokenIndex}

/** Cross-method invariants checked on random collections: the *Same Eventual
  * Quality* requirement of Sec. 3.1, repeat-freedom where the paper claims
  * it, and metric sanity.
  *
  * ScalaCheck generators are sampled directly with deterministic seeds (the
  * scalatest–scalacheck bridge artifact is not part of the offline toolchain).
  */
class PropertySpec extends SparkSpec {

  private def samples[T](g: Gen[T], n: Int = 40): Seq[T] =
    (1 to n).flatMap(i => g.apply(Gen.Parameters.default, Seed(i.toLong)))

  private val vocabGen = Gen.oneOf(
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lam", "mu")

  private val profileGen: Gen[Vector[String]] =
    Gen.nonEmptyListOf(vocabGen).map(_.toVector.distinct)

  private val collectionGen: Gen[ProfileCollection] =
    Gen.choose(2, 12).flatMap { n =>
      Gen.listOfN(n, profileGen).map { tokenLists =>
        ProfileCollection(
          tokenLists.zipWithIndex.map { case (ts, i) =>
            Profile(i, 0, Vector("v" -> ts.mkString(" ")))
          }.toVector,
          DirtyEr)
      }
    }

  /** An attribute value: vocabulary tokens, or punctuation that yields no
    * token at all.
    */
  private val valueGen: Gen[String] = Gen.frequency(
    5 -> profileGen.map(_.mkString(" ")),
    1 -> Gen.oneOf("", "--", "?! ;"))

  /** Dirty or Clean-clean ER, |P| from 0, profiles with no tokens included;
    * the |P| ≤ 1 cases are also listed explicitly.
    */
  private val anyCollectionGen: Gen[ProfileCollection] = for {
    n          <- Gen.choose(0, 12)
    cleanClean <- Gen.oneOf(false, true)
    values     <- Gen.listOfN(n, valueGen)
    sources    <- Gen.listOfN(n, Gen.oneOf(1, 2))
  } yield ProfileCollection(
    values.indices.map { i =>
      Profile(i, if (cleanClean) sources(i) else 0, Vector("v" -> values(i)))
    }.toVector,
    if (cleanClean) CleanCleanEr else DirtyEr)

  private val anyCollections: Seq[ProfileCollection] =
    samples(anyCollectionGen, 60) ++ Seq(
      ProfileCollection(Vector.empty, DirtyEr),
      ProfileCollection(Vector.empty, CleanCleanEr),
      ProfileCollection(Vector(Profile(0, 0, Vector("v" -> "alpha beta"))), DirtyEr),
      ProfileCollection(Vector(Profile(0, 1, Vector("v" -> "alpha beta"))), CleanCleanEr),
      oneSource(1),
      oneSource(2))

  /** Clean-clean ER with every profile on one source: no partners at all
    * (source 1), or no outer profiles (source 2).
    */
  private def oneSource(source: Int): ProfileCollection =
    ProfileCollection(
      Vector("alpha beta", "beta gamma", "alpha gamma beta").zipWithIndex.map { case (v, i) =>
        Profile(i, source, Vector("v" -> v))
      },
      CleanCleanEr)

  /** The LS-PSN / GS-PSN window scan as it was before the primitive kernel:
    * a `LinkedHashMap` of neighbor frequencies per scanned profile, boxed
    * comparisons, and a sort with the tuple ordering.
    */
  private def referenceScan(pc: ProfileCollection, nl: NeighborList, wLo: Int, wHi: Int): Vector[Comparison] =
    pc.source1Ids.iterator.flatMap { i =>
      val freq = scala.collection.mutable.LinkedHashMap.empty[Int, Int]
      for (pos <- nl.positionsOf(i); w <- wLo to wHi; at <- Seq(pos + w, pos - w)
           if at >= 0 && at < nl.size) {
        val j = nl.entries(at)
        val valid = pc.erType match {
          case DirtyEr      => j < i
          case CleanCleanEr => pc.source(j) != pc.source(i)
        }
        if (valid) freq.update(j, freq.getOrElse(j, 0) + 1)
      }
      val lenI = nl.positionsOf(i).length
      freq.iterator.map { case (j, f) =>
        Comparison.of(i, j, Rcf.weight(f, lenI, nl.positionsOf(j).length, wHi - wLo + 1))
      }
    }.toVector.sorted(BoxedReference.byDescendingWeight)

  /** Pairs and raw weight bits, so that -0.0 ≠ 0.0 and NaNs compare. */
  private def exact(cs: Iterable[Comparison]): Seq[(Int, Int, Long)] =
    cs.toSeq.map(c => (c.i, c.j, java.lang.Double.doubleToRawLongBits(c.weight)))

  /** Distinct canonical pairs, each with a weight that ties, is a signed
    * zero, NaN or infinite more often than not.
    */
  private val weightedPairsGen: Gen[Vector[Comparison]] = for {
    pairs   <- Gen.listOf(Gen.choose(0, 14).flatMap(i => Gen.choose(i + 1, 15).map(j => (i, j))))
    weights <- Gen.listOfN(pairs.size, Gen.oneOf(0.0, -0.0, Double.NaN, Double.PositiveInfinity, 0.5, 1.0))
  } yield pairs.distinct.zip(weights).map { case ((i, j), w) => Comparison(i, j, w) }.toVector

  /** The Comparison List of the weighted pairs `cs`, shuffled and grouped
    * by the sort-based rank of their negated weights, so every run is
    * unsorted; pairs must be distinct.
    */
  private def listOf(cs: Seq[Comparison]): ComparisonList = {
    val shuffled = new scala.util.Random(cs.size).shuffle(cs)
    val (ranks, distinct) = BoxedReference.rank(shuffled.map(c => -c.weight).toArray, cs.size)
    val grouped = shuffled.indices.sortBy(ranks(_)).map(t => shuffled(t).i.toLong << 32 | shuffled(t).j)
    new ComparisonList(grouped.toArray, (0 to distinct.length).map(r => ranks.count(_ < r)).toArray, distinct)
  }

  test("the Comparison List sorts by descending weight in raw bits, signed zeros and NaN included") {
    for (cs <- samples(weightedPairsGen, 200))
      assert(exact(listOf(cs)) === exact(cs.sorted(BoxedReference.byDescendingWeight)), cs)
  }

  /** Ties, signed zeros, NaN (canonical or not), infinities and
    * subnormals, among arbitrary doubles.
    */
  private val anyDoubleGen: Gen[Double] = Gen.frequency(
    3 -> Gen.oneOf(0.0, -0.0, 0.5, 1.0, -1.0, Double.PositiveInfinity, Double.NegativeInfinity),
    2 -> Gen.oneOf(0x7ff8000000000000L, 0xfff8000000000000L, 0x7ff0000000000001L, 0x7ff80000000000ffL)
      .map(java.lang.Double.longBitsToDouble),
    1 -> Gen.oneOf(Double.MinPositiveValue, -Double.MinPositiveValue, java.lang.Double.MIN_NORMAL / 3),
    2 -> Gen.choose(-1e6, 1e6))

  test("RankSort.rank equals the sort-based rank, spare capacity past n included") {
    val gen = for {
      xs    <- Gen.listOf(anyDoubleGen)
      spare <- Gen.listOf(anyDoubleGen)
    } yield (xs.toArray ++ spare, xs.size)
    for ((xs, n) <- samples(gen, 300)) {
      val (ranks, distinct) = RankSort.rank(xs, n)
      val (expectedRanks, expectedDistinct) = BoxedReference.rank(xs, n)
      val clue = xs.take(n).map(java.lang.Double.doubleToRawLongBits).toSeq
      assert(ranks.toSeq === expectedRanks.toSeq, clue)
      // NaNs form one class; which NaN represents it is not part of the order
      assert(distinct.map(java.lang.Double.doubleToLongBits).toSeq ===
        expectedDistinct.map(java.lang.Double.doubleToLongBits).toSeq, clue)
    }
  }

  test("RankSort.group is the stable sort of the indices keyed in 0 until nKeys") {
    val gen = for {
      nKeys <- Gen.choose(0, 6)
      keys  <- Gen.listOf(Gen.choose(-1, nKeys + 1))
    } yield (keys.toArray, nKeys)
    // empty input, no keys, every key dropped, a single key, keys past nKeys
    val edges = Seq(
      (Array.empty[Int], 0), (Array.empty[Int], 3), (Array(-1, -1), 0), (Array(-1, -1, -1), 2),
      (Array(0), 1), (Array(0, 0, 0), 1), (Array(-1, 0, -1, 0), 1), (Array(0, 1, 2), 0), (Array(2, 0, 5, 1, 0), 2),
      (Array(Int.MaxValue, 0, Int.MinValue), 1))
    for ((keys, nKeys) <- samples(gen, 300) ++ edges) {
      val (grouped, start) = RankSort.group(keys, nKeys)
      val clue = (keys.toSeq, nKeys)
      val kept = keys.indices.filter(x => keys(x) >= 0 && keys(x) < nKeys)
      assert(grouped.toSeq === kept.sortBy(keys(_)), clue)
      assert(start.toSeq === (0 to nKeys).map(k => kept.count(keys(_) < k)), clue)
    }
  }

  /** The same Comparison List read by one iterator, by two interleaved
    * iterators and by four threads at once.
    */
  private def everyReading(list: ComparisonList): Seq[(String, Seq[Comparison])] = {
    val interleaved = {
      val (a, b) = (list.iterator, list.iterator)
      val (outA, outB) = (Vector.newBuilder[Comparison], Vector.newBuilder[Comparison])
      while (a.hasNext) {
        outA += a.next()
        if (b.hasNext) outB += b.next()
        if (b.hasNext) outB += b.next()
      }
      assert(!b.hasNext)
      Seq(outA.result(), outB.result())
    }
    val concurrent = {
      val start = new java.util.concurrent.CountDownLatch(1)
      val read = Array.fill(4)(Vector.empty[Comparison])
      val threads = (0 until 4).map { t =>
        new Thread(() => {
          start.await()
          read(t) = list.iterator.toVector
        })
      }
      threads.foreach(_.start())
      start.countDown()
      threads.foreach(_.join())
      read.toSeq
    }
    Seq("iterator" -> list.iterator.toVector) ++
      interleaved.map("interleaved iterators" -> _) ++ concurrent.map("concurrent readers" -> _)
  }

  test("the lazily sorted Comparison List reads the same in every order and from every thread") {
    val allDistinct = (0 until 300).map(k => Comparison(k / 20, 20 + k % 20, k * 0.37))
    val oneWeight = (0 until 300).map(k => Comparison(k / 20, 20 + k % 20, 0.5))
    val manyRuns = (0 until 3000).map(k => Comparison(k / 60, 60 + k % 60, ((k * 7919) % 13) / 4.0))
    // equal weights, signed zeros and NaN next to each other
    val neighbours = (0 until 12).map(k => Comparison(k, 12 + k, Seq(0.0, -0.0, Double.NaN, 0.5)(k % 4)))
    val inputs = samples(weightedPairsGen, 60) ++ Seq(Vector.empty, oneWeight, allDistinct, manyRuns, neighbours)
    for (cs <- inputs) {
      val expected = exact(cs.sorted(BoxedReference.byDescendingWeight))
      val list = listOf(cs)
      assert(list.size === cs.size)
      for ((how, read) <- everyReading(list))
        assert(exact(read) === expected, s"$how, n=${cs.size}")
    }
  }

  /** The window scan with `pc.source1Ids` cut into `ranges` contiguous
    * ranges of about equal placements.
    */
  private def cutScan(pc: ProfileCollection, nl: NeighborList, wLo: Int, wHi: Int, ranges: Int): ComparisonList = {
    val ids = pc.source1Ids.toArray
    new WindowScan(pc, nl, WindowScan.PartnerView(pc, nl), wLo, wHi, ids,
      ForkJoin.cut(ids.length, ranges)(x => nl.positionsOf(ids(x)).length.toLong)).comparisons()
  }

  test("the window scan equals the reference scan for any cut into ranges") {
    for (pc <- anyCollections ++ samples(collectionGen, 20) :+ PaperExample.pc) {
      val nl = NeighborList.build(pc)
      for ((wLo, wHi) <- Seq((1, 1), (2, 2), (1, 3), (1, nl.size + 1), (2, 5), (3, nl.size + 2));
           ranges <- Seq(1, 2, 3, 7, pc.source1Ids.size).filter(_ >= 1).distinct)
        assert(exact(cutScan(pc, nl, wLo, wHi, ranges)) === exact(referenceScan(pc, nl, wLo, wHi)),
          s"${pc.erType} |P|=${pc.size} windows=[$wLo, $wHi] ranges=$ranges")
    }
  }

  test("LS-PSN windows equal the reference scan, sequence for sequence") {
    for (pc <- anyCollections) {
      val nl = NeighborList.build(pc)
      val ls = new LSPSN(pc, nl)
      for (w <- 1 to nl.size + 1)
        assert(exact(ls.windowComparisons(w)) === exact(referenceScan(pc, nl, w, w)),
          s"${pc.erType} |P|=${pc.size} w=$w")
    }
  }

  test("LS-PSN's stream is the reference scan's windows 1, 2, 3, ... concatenated") {
    for (pc <- anyCollections) {
      val nl = NeighborList.build(pc)
      val windows = (1 until nl.size).flatMap(w => exact(referenceScan(pc, nl, w, w)))
      assert(exact(new LSPSN(pc, nl).emissions.toVector) === windows, s"${pc.erType} |P|=${pc.size}")
    }
  }

  /** Profiles that share identical token sets, in both ER types: with a
    * wide window their pairs tie, in runs longer than a small band.
    */
  private val tiedCollections: Seq[ProfileCollection] =
    for (er <- Seq(DirtyEr, CleanCleanEr)) yield ProfileCollection(
      Vector.tabulate(14) { i =>
        val tokens = if (i % 5 == 4) "alpha delta" else "alpha beta gamma"
        Profile(i, if (er == DirtyEr) 0 else 1 + i % 2, Vector("v" -> tokens))
      },
      er)

  test("GS-PSN's banded stream equals the reference scan for any band size, cut and wMax") {
    var straddles = 0
    for (pc <- blockingCollections ++ noTokenCollections ++ tiedCollections) {
      val nl = NeighborList.build(pc)
      val view = WindowScan.PartnerView(pc, nl)
      val ids = pc.source1Ids.toArray
      for (wMax <- Seq(1, 2, 5, nl.size, nl.size + 3).filter(_ >= 1).distinct) {
        val expected = exact(referenceScan(pc, nl, 1, wMax))
        for (keep <- Seq(1, 2, 3, pc.size).filter(_ >= 1).distinct) {
          val clue = s"${pc.erType} |P|=${pc.size} wMax=$wMax B=$keep"
          assert(exact(new GSPSN(pc, nl, wMax).emissions(keep).toVector) === expected, clue)
          for (ranges <- Seq(1, 2, 3, 7, ids.length).filter(_ >= 1).distinct) {
            val bounds = ForkJoin.cut(ids.length, ranges)(x => nl.positionsOf(ids(x)).length.toLong)
            assert(exact(new WindowScan(pc, nl, view, 1, wMax, ids, bounds).bands(keep).toVector) === expected,
              s"$clue ranges=$ranges")
          }
          // a weight's run crosses the first band's border at B
          if (tiedCollections.contains(pc) && expected.size > keep && expected(keep - 1)._3 == expected(keep)._3)
            straddles += 1
        }
      }
    }
    assert(straddles > 0)
  }

  test("every band stores exactly the reference pairs between the last band's border and its own") {
    for (pc <- blockingCollections ++ tiedCollections) {
      val nl = NeighborList.build(pc)
      val view = WindowScan.PartnerView(pc, nl)
      val ids = pc.source1Ids.toArray
      for (wMax <- Seq(1, 5, nl.size).filter(_ >= 1).distinct) {
        val reference = referenceScan(pc, nl, 1, wMax)
        for (keep <- Seq(1, 2, 3, pc.size).filter(_ >= 1).distinct;
             ranges <- Seq(1, 2, 3, 7, ids.length).filter(_ >= 1).distinct) {
          val scan = new WindowScan(pc, nl, view, 1, wMax, ids,
            ForkJoin.cut(ids.length, ranges)(x => nl.positionsOf(ids(x)).length.toLong))
          var (after, b, read) = (Double.NegativeInfinity, keep, 0)
          while (after != Double.PositiveInfinity) {
            val (band, last) = scan.band(after, b)
            val clue = s"${pc.erType} |P|=${pc.size} wMax=$wMax B=$keep ranges=$ranges band ($after, $last]"
            val expected = reference.filter(c => -c.weight > after && -c.weight <= last)
            assert(exact(band) === exact(expected), clue)
            assert(band.size === band.iterator.size, clue)
            read += band.size
            after = last
            b = math.min(Int.MaxValue.toLong, 2L * b).toInt
          }
          assert(read === reference.size)
        }
      }
    }
  }

  test("GS-PSN lists equal the reference scan, wMax up to and beyond |NL|") {
    for (pc <- anyCollections) {
      val nl = NeighborList.build(pc)
      for (wMax <- Seq(1, 2, 5, nl.size, nl.size + 3).filter(_ >= 1).distinct) {
        val gs = new GSPSN(pc, nl, wMax)
        val expected = exact(referenceScan(pc, nl, 1, wMax))
        assert(exact(gs.globalComparisons()) === expected, s"${pc.erType} |P|=${pc.size} wMax=$wMax")
        assert(exact(gs.emissions.toVector) === expected)
      }
    }
  }

  test("the Neighbor List equals a stable sort on (key, seeded hash)") {
    val inputs = anyCollections.map(pc => (Tokenizer.placements(pc), pc.size)) ++ samples(anyPlacementsGen, 100)
    for ((placements, nProfiles) <- inputs) {
      val nl = NeighborList.fromPlacements(placements, nProfiles)
      val expected = placements.sortBy { case (k, id) =>
        (k, scala.util.hashing.MurmurHash3.stringHash(s"$k#$id", 42))
      }
      assert(nl.entries.toSeq === expected.map(_._2))
      assert(nl.keys.toSeq === expected.map(_._1))
      for (i <- 0 until nProfiles)
        assert(nl.positionsOf(i).toSeq === nl.entries.indices.filter(nl.entries(_) == i))
    }
  }

  test("RankSort.strings orders distinct strings as String.compareTo does") {
    val gen = Gen.listOf(anyKeyGen).map(_.distinct)
    val edges = Seq(Nil, Seq(""), Seq("a"), Seq("", "a"), Seq("b", ""), Seq("a" * 200, "a" * 201, "a" * 199 + "b"),
      Seq("\ud83d\ude00", "\ue000", "\uffff", "\ud83d", "\ude00"))
    // enough keys for the radix sort, with runs past the first packed word
    val many = samples(anyKeyGen, 6000).distinct
    for (keys <- samples(gen, 300) ++ edges :+ many) {
      val strings = keys.toArray
      assert(RankSort.strings(strings).toSeq === strings.indices.sortBy(strings(_)), keys)
    }
  }

  test("the streamed tie equals NeighborList.tie") {
    val keys = samples(rawValueGen, 100) ++ Seq("", "a", "ab", "abc", "é", "ß", "\ud83d\ude00", "x\ud83d\ude00", "İ")
    val ids = Seq(0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 9999, 10000, 99999, 100000, 999999, 1000000,
      9999999, 10000000, 99999999, 100000000, 999999999, 1000000000, Int.MaxValue - 1, Int.MaxValue)
    for (key <- keys) {
      val state = NeighborList.tieState(key)
      for (id <- ids) {
        val expected = scala.util.hashing.MurmurHash3.stringHash(s"$key#$id", 42)
        assert(NeighborList.streamedTie(state, id) === expected, (key, id))
        assert(NeighborList.tie(key, id) === expected, (key, id))
      }
    }
  }

  /** A string of ASCII letters and digits, punctuation, non-ASCII letters
    * (some lowercase to ASCII or to more than one char) and surrogate pairs.
    */
  private val rawValueGen: Gen[String] =
    Gen.listOf(Gen.oneOf(
      Gen.alphaNumChar.map(_.toString),
      Gen.oneOf(" ", "-", "_", ".", ",", "/", "!", "?", "\t", "'"),
      Gen.oneOf("é", "ß", "İ", "Σ", "ς", "ﬁ", "\u212a", "Ω", "ı", "Ä"),
      Gen.oneOf("\ud835\udc9c", "\ud83d\ude00", "\ud801\udc00", "\ud801\udc28"))).map(_.mkString)

  /** Keys that share a prefix longer than the units one `long` packs (a few
    * units from a small alphabet pack 30 to a word).
    */
  private val longPrefixGen: Gen[String] = for {
    prefix <- Gen.oneOf("", "a" * 70, "ab" * 40)
    rest   <- Gen.listOf(Gen.oneOf("a", "b")).map(_.mkString)
  } yield prefix + rest

  /** Surrogate pairs against units in U+E000–U+FFFF, which sort above
    * them in `String.compareTo` order (UTF-16 units), though their code
    * points are lower.
    */
  private val surrogateGen: Gen[String] =
    Gen.listOf(Gen.oneOf("\ud83d\ude00", "\ud800\udc00", "\ue000", "\uf8ff", "\uffff", "\ud7ff", "x")).map(_.mkString)

  /** Any key: from any string to long shared prefixes, the empty string
    * included.
    */
  private val anyKeyGen: Gen[String] =
    Gen.frequency(3 -> rawValueGen, 2 -> longPrefixGen, 2 -> surrogateGen, 1 -> Gen.const(""))

  /** Placements with any keys, as the schema-based PSN passes them: some
    * keys shared by several profiles, some profiles under several keys.
    */
  private val anyPlacementsGen: Gen[(Vector[(String, Int)], Int)] = for {
    nProfiles  <- Gen.choose(1, 10)
    keys       <- Gen.nonEmptyListOf(anyKeyGen)
    placements <- Gen.listOf(Gen.zip(Gen.oneOf(keys), Gen.choose(0, nProfiles - 1)))
  } yield (placements.toVector, nProfiles)

  test("the tokenizer equals the regex split on any string") {
    for (v <- samples(rawValueGen, 400)) {
      assert(Tokenizer.tokens(v) === BoxedReference.tokens(v), v)
      val p = Profile(0, 0, Vector("a" -> v, "b" -> v.reverse, "c" -> v.toUpperCase))
      assert(Reference.profileKeys(p) === BoxedReference.profileKeys(p), v)
    }
  }

  /** `anyCollections` plus single-source Clean-clean ER. */
  private val blockingCollections: Seq[ProfileCollection] =
    anyCollections ++ samples(anyCollectionGen, 20).map { pc =>
      val side = if (pc.size % 2 == 0) 1 else 2
      ProfileCollection(pc.profiles.map(_.copy(source = side)), CleanCleanEr)
    }

  /** Collections of `rawValueGen` values: ASCII and non-ASCII values mixed
    * in one profile and across profiles.
    */
  private val unicodeCollectionGen: Gen[ProfileCollection] = for {
    n          <- Gen.choose(0, 12)
    cleanClean <- Gen.oneOf(false, true)
    values     <- Gen.listOfN(n, Gen.listOf(rawValueGen))
    sources    <- Gen.listOfN(n, Gen.oneOf(1, 2))
  } yield ProfileCollection(
    values.indices.map { i =>
      Profile(i, if (cleanClean) sources(i) else 0, values(i).zipWithIndex.map { case (v, a) => s"a$a" -> v }.toVector)
    }.toVector,
    if (cleanClean) CleanCleanEr else DirtyEr)

  /** Units whose lowercase differs from any one-unit ASCII rule: İ (U+0130)
    * lowercases to "i̇" (i and U+0307), the KELVIN SIGN (U+212A) to "k";
    * ß and surrogate pairs are no token units; the same tokens also come
    * in ASCII, in mixed case.
    */
  private val unicodeTokens = ProfileCollection(
    Vector(
      Vector("v" -> "İstanbul \u212aelvin STRAßE café", "w" -> "ISTANBUL"),
      Vector("v" -> "istanbul kelvin strasse CAFE", "w" -> "\ud83d\ude00abc ABC aBc\ud801\udc00Def"),
      Vector("v" -> "Xİy xi y xiy", "w" -> "\u212a k K ß ss SS"),
      Vector("v" -> "ΣΑΣ σας abc\u00e9def", "w" -> "MiXeD mixed MIXED")).zipWithIndex.map { case (attrs, i) =>
      Profile(i, 0, attrs)
    },
    DirtyEr)

  /** `blockingCollections`, plus profiles that repeat tokens inside an
    * attribute value and across values.
    */
  private val indexCollections: Seq[ProfileCollection] =
    blockingCollections ++ samples(anyCollectionGen, 20).map { pc =>
      pc.copy(profiles = pc.profiles.map { p =>
        p.copy(attrs = p.attrs.flatMap { case (a, v) => Seq(a -> s"$v ${v.reverse} $v", a -> v.toUpperCase) })
      })
    } ++ samples(unicodeCollectionGen, 30) :+ unicodeTokens :+ PaperExample.pc

  /** The cuts into ranges every range-parallel build is checked under. */
  private def rangeCounts(pc: ProfileCollection): Seq[Int] =
    Seq(1, 2, 3, 7, pc.size, pc.size + 1).filter(_ >= 1).distinct

  test("the token index equals the sequential index for any cut into ranges") {
    for (pc <- indexCollections) {
      val (tokens, start, tokenIds) = BoxedReference.tokenIndex(pc)
      for ((ranges, index) <- rangeCounts(pc).map(q => (q.toString, Reference.tokenIndex(pc, q))) :+ ("default" -> TokenIndex(pc))) {
        val clue = s"${pc.erType} |P|=${pc.size} ranges=$ranges"
        assert(index.tokens.toSeq === tokens, clue)
        assert(index.start.toSeq === start, clue)
        assert(index.tokenIds.toSeq === tokenIds, clue)
      }
    }
  }

  test("the Neighbor List of the token index equals the list of the placements for any cut into ranges") {
    for (pc <- indexCollections) {
      val expected = NeighborList.fromPlacements(Tokenizer.placements(pc), pc.size)
      for ((ranges, nl) <- rangeCounts(pc).map(q => (q.toString, Reference.neighborList(pc, q))) :+
             ("default" -> NeighborList.build(pc))) {
        val clue = s"${pc.erType} |P|=${pc.size} ranges=$ranges"
        assert(nl.entries.toSeq === expected.entries.toSeq, clue)
        assert(nl.keys.toSeq === expected.keys.toSeq, clue)
        assert(nl.positionIndex.map(_.toSeq).toSeq === expected.positionIndex.map(_.toSeq).toSeq, clue)
      }
    }
  }

  private def sameBlocks(actual: Seq[Block], expected: Seq[Block], clue: String): Unit = {
    assert(actual.map(_.key) === expected.map(_.key), clue)
    assert(actual.map(_.profiles.toSeq) === expected.map(_.profiles.toSeq), clue)
  }

  test("Token Blocking equals the boxed builder") {
    for (pc <- blockingCollections)
      sameBlocks(TokenBlocking.build(pc).blocks, BoxedReference.tokenBlocks(pc), s"${pc.erType} |P|=${pc.size}")
  }

  test("SA-PSAB suffix blocks equal the boxed builder, in processing order") {
    for (pc <- blockingCollections; lMin <- Seq(1, 2, 4)) {
      val blocks = new SAPSAB(pc, lMin).orderedBlocks
      val expected = BoxedReference.suffixBlocks(pc, lMin)
      assert(blocks.map(b => (b.suffix, b.profiles.toSeq)) === expected.map { case (s, ids) => (s, ids.toSeq) },
        s"${pc.erType} |P|=${pc.size} lMin=$lMin")
      assert(blocks.map(_.cardinality) === expected.map(b => BoxedReference.cardinality(pc, b._2)))
    }
  }

  /** The stream of the boxed suffix blocks: every block's valid pairs in
    * (i, j) order, blocks in processing order.
    */
  private def boxedSuffixStream(pc: ProfileCollection, lMin: Int): Vector[Comparison] =
    for {
      (_, ids) <- BoxedReference.suffixBlocks(pc, lMin)
      x <- ids.indices.toVector
      y <- x + 1 until ids.length
      if pc.validPair(ids(x), ids(y))
    } yield Comparison(ids(x), ids(y), 0.0)

  /** Profiles whose every token is shorter than 4 characters. */
  private val shortTokens = ProfileCollection(
    Vector("ab cd", "ab cd efg", "efg x", "", "x ab").zipWithIndex.map { case (v, i) =>
      Profile(i, 0, Vector("v" -> v))
    },
    DirtyEr)

  test("SA-PSAB's stream equals the stream of the boxed suffix blocks") {
    for (pc <- blockingCollections :+ shortTokens; lMin <- Seq(1, 2, 4))
      assert(exact(new SAPSAB(pc, lMin).emissions.toVector) === exact(boxedSuffixStream(pc, lMin)),
        s"${pc.erType} |P|=${pc.size} lMin=$lMin")
    assert(new SAPSAB(shortTokens, 4).emissions.isEmpty)
    assert(new SAPSAB(shortTokens, 2).emissions.nonEmpty)
  }

  test("SA-PSAB's first emission builds only the layers down to the first non-empty one") {
    var checked = 0
    for (pc <- blockingCollections :+ shortTokens; lMin <- Seq(1, 2, 4)) {
      val longest = Tokenizer.placements(pc).map(_._1.length).maxOption.getOrElse(0)
      val m = new SAPSAB(pc, lMin)
      val it = m.emissions
      val clue = s"${pc.erType} |P|=${pc.size} lMin=$lMin"
      assert(m.layersBuilt === 0, clue)
      BoxedReference.suffixBlocks(pc, lMin).headOption match {
        case Some((suffix, _)) =>
          it.next()
          assert(m.layersBuilt === longest - suffix.length + 1, clue)
          checked += 1
        case None =>
          assert(!it.hasNext, clue)
          assert(m.layersBuilt === math.max(0, longest - lMin + 1), clue)
      }
    }
    assert(checked > 0)
  }

  test("interleaved SA-PSAB iterators and the ordered blocks agree") {
    for (pc <- blockingCollections; lMin <- Seq(1, 2, 4)) {
      val m = new SAPSAB(pc, lMin)
      val (a, b) = (m.emissions, m.emissions)
      val (outA, outB) = (Vector.newBuilder[Comparison], Vector.newBuilder[Comparison])
      while (a.hasNext) {
        outA += a.next()
        if (b.hasNext) outB += b.next()
        if (b.hasNext) outB += b.next()
      }
      assert(!b.hasNext)
      val fromBlocks = m.orderedBlocks.flatMap { blk =>
        Block.pairs(pc, blk.profiles).map { case (i, j) => Comparison(i, j, 0.0) }
      }
      val clue = s"${pc.erType} |P|=${pc.size} lMin=$lMin"
      assert(exact(outA.result()) === exact(fromBlocks), clue)
      assert(exact(outB.result()) === exact(fromBlocks), clue)
    }
  }

  /** Token blocks, purged token blocks and the full workflow's blocks. */
  private def blockInputs(pc: ProfileCollection): Seq[BlockCollection] = {
    val tb = TokenBlocking.build(pc)
    Seq(tb, BlockPurging.purge(tb, 0.5), BlockFiltering.filter(BlockPurging.purge(tb, 0.5), 0.8))
  }

  test("the block builder, purging and filtering keep the blocks in ascending key order") {
    for (pc <- blockingCollections; bc <- blockInputs(pc)) {
      val keys = bc.blocks.map(_.key)
      assert(keys.zip(keys.drop(1)).forall { case (a, b) => a < b }, s"${pc.erType} |P|=${pc.size}")
    }
  }

  test("Block Filtering equals the boxed filter") {
    for (pc <- blockingCollections; bc <- blockInputs(pc); ratio <- Seq(0.5, 0.8, 1.0))
      sameBlocks(BlockFiltering.filter(bc, ratio).blocks, BoxedReference.filter(bc, ratio),
        s"${pc.erType} |P|=${pc.size} ratio=$ratio")
  }

  test("the Profile Index equals the boxed build") {
    for (pc <- blockingCollections; bc <- blockInputs(pc)) {
      val pi = ProfileIndex.build(bc)
      val (ordered, cards, ids) = BoxedReference.profileIndex(bc)
      sameBlocks(pi.orderedBlocks, ordered, s"${pc.erType} |P|=${pc.size}")
      assert(pi.cardinalities.toSeq === cards)
      assert((0 until pc.size).map(pi.blocksOf(_).toSeq) === ids)
    }
  }

  test("neighborhood weights equal the boxed Map in raw bits") {
    for (pc <- blockingCollections; bc <- blockInputs(pc)) {
      val pi = ProfileIndex.build(bc)
      for (i <- 0 until pc.size) {
        val bits = (m: collection.Map[Int, Double]) => m.map { case (j, w) => j -> java.lang.Double.doubleToRawLongBits(w) }.toMap
        assert(bits(BlockingGraph.neighborhood(pc, pi, i)) === bits(BoxedReference.neighborhood(pc, pi, i)),
          s"${pc.erType} |P|=${pc.size} i=$i")
      }
    }
  }

  test("PPS equals the boxed reference PPS, stream for stream") {
    var nodes = 0
    var tiedBest = 0
    var tiedLikelihoods = 0
    for (pc <- blockingCollections ++ samples(collectionGen); bc <- blockInputs(pc).take(2)) {
      val pi = ProfileIndex.build(bc)
      val nbrs = (0 until pc.size).map(BoxedReference.neighborhood(pc, pi, _)).filter(_.nonEmpty)
      nodes += nbrs.size
      tiedBest += nbrs.count { n => val best = n.values.max; n.values.count(_ == best) > 1 }
      val likelihoods = nbrs.map(n => n.values.sum / n.size)
      tiedLikelihoods += likelihoods.size - likelihoods.distinct.size
      for (kMax <- Seq(1, 3, 50)) {
        val pps = new PPS(pc, pi, kMax)
        val (init, stream) = BoxedReference.pps(pc, pi, kMax)
        val clue = s"${pc.erType} |P|=${pc.size} kMax=$kMax"
        val actual = pps.initialize()
        assert(exact(actual.topComparisons) === exact(init.topComparisons), clue)
        assert(actual.sortedProfileList === init.sortedProfileList, clue)
        assert(actual.topNeighbor.toSeq === init.topNeighbor.toSeq, clue)
        assert(exact(pps.emissions.toVector) === exact(stream), clue)
      }
    }
    // The ARCS weights of these inputs tie, so the (i, j) tie-break of the
    // top comparisons and the id tie-break of the Sorted Profile List are
    // exercised.
    assert(tiedBest > 0 && tiedLikelihoods > 0,
      s"$tiedBest of $nodes nodes with a tied best edge, $tiedLikelihoods tied likelihoods")
  }

  test("PBS's block comparisons equal two merges, LeCoBI then ARCS, sorted boxed, in raw bits") {
    var tiedBlocks = 0
    for (pc <- blockingCollections ++ samples(collectionGen); bc <- blockInputs(pc)) {
      val pi = ProfileIndex.build(bc)
      val pbs = new PBS(pc, pi)
      for (k <- pi.orderedBlocks.indices) {
        val expected = pi.orderedBlocks(k).pairs(pc).collect {
          case (i, j) if Reference.lecobi(pi, i, j) == k => Comparison(i, j, Reference.arcs(pi, i, j))
        }.toVector.sorted(BoxedReference.byDescendingWeight)
        if (expected.map(_.weight).distinct.size < expected.size) tiedBlocks += 1
        assert(exact(pbs.blockComparisons(k)) === exact(expected), s"${pc.erType} |P|=${pc.size} block=$k")
      }
    }
    // tied weights inside a block exercise the (i, j) tie-break
    assert(tiedBlocks > 0)
  }

  test("PPS initialization equals the sequential initialization for any cut into ranges") {
    for (pc <- blockingCollections ++ samples(collectionGen); bc <- blockInputs(pc).take(2)) {
      val pi = ProfileIndex.build(bc)
      val pps = new PPS(pc, pi)
      val (expected, _) = BoxedReference.pps(pc, pi, 1)
      for (q <- rangeCounts(pc)) {
        val init = pps.initialize(ForkJoin.cut(pc.size, q)(_ => 1L))
        val clue = s"${pc.erType} |P|=${pc.size} ranges=$q"
        assert(exact(init.topComparisons) === exact(expected.topComparisons), clue)
        assert(init.sortedProfileList === expected.sortedProfileList, clue)
        assert(init.topNeighbor.toSeq === expected.topNeighbor.toSeq, clue)
      }
    }
  }

  private def fullIndex(pc: ProfileCollection): ProfileIndex =
    ProfileIndex.build(TokenBlocking.build(pc))

  test("GS-PSN never repeats a comparison") {
    for (pc <- samples(collectionGen) ++ anyCollections) {
      val nl = NeighborList.build(pc)
      val ps = new GSPSN(pc, nl, wMax = nl.size + 1).emissions.map(_.pair).toVector
      assert(ps.distinct.size === ps.size)
      ps.foreach { case (i, j) => assert(pc.validPair(i, j)) }
    }
  }

  test("PBS never repeats a comparison and covers exactly the block pairs") {
    for (pc <- samples(collectionGen)) {
      val ps = new PBS(pc, fullIndex(pc)).emissions.map(_.pair).toVector
      assert(ps.distinct.size === ps.size)
      val expected = TokenBlocking.build(pc).blocks.flatMap(_.pairs(pc)).toSet
      assert(ps.toSet === expected)
    }
  }

  test("PBS emits the same pair set as the materialized Blocking Graph") {
    for (pc <- samples(collectionGen)) {
      val pi = fullIndex(pc)
      val graph = Reference.edges(pc, pi).map(_.pair).toSet
      assert(new PBS(pc, pi).emissions.map(_.pair).toSet === graph)
    }
  }

  test("PPS with large kMax never repeats and covers the graph") {
    for (pc <- samples(collectionGen)) {
      val pi = fullIndex(pc)
      val ps = new PPS(pc, pi, kMax = 1000).emissions.map(_.pair).toVector
      assert(ps.distinct.size === ps.size)
      assert(ps.toSet === Reference.edges(pc, pi).map(_.pair).toSet)
    }
  }

  test("SA-PSN eventually emits every co-occurring pair") {
    for (pc <- samples(collectionGen) ++ anyCollections) {
      val nl = NeighborList.build(pc)
      if (nl.size > 1) {
        val sapsn = new SAPSN(pc, nl).emissions.map(_.pair).toSet
        val gsAll = new GSPSN(pc, nl, wMax = nl.size).emissions.map(_.pair).toSet
        assert(sapsn === gsAll)
      }
    }
  }

  test("all emissions of every method are valid canonical pairs") {
    for (pc <- samples(collectionGen, 20)) {
      val nl = NeighborList.build(pc)
      val pi = fullIndex(pc)
      val methods = Seq(
        new SAPSN(pc, nl), new SAPSAB(pc, 3), new LSPSN(pc, nl),
        new GSPSN(pc, nl, 5), new PBS(pc, pi), new PPS(pc, pi))
      for (m <- methods; c <- m.emissions.take(300)) {
        assert(c.i < c.j, m.name)
        assert(pc.validPair(c.i, c.j), m.name)
      }
    }
  }

  /** Two profiles with no tokens, in both ER types. */
  private val noTokenCollections: Seq[ProfileCollection] =
    for (er <- Seq(DirtyEr, CleanCleanEr)) yield ProfileCollection(
      Vector("", "?! ;").zipWithIndex.map { case (v, i) =>
        Profile(i, if (er == DirtyEr) 0 else i + 1, Vector("v" -> v))
      },
      er)

  test("every method of Experiments.method emits an empty or valid stream on degenerate collections") {
    // profiles with no tokens, single-source Clean-clean ER and |P| ≤ 1; the
    // ground truth is only there to build the dataset, no metric reads it
    for (pc <- blockingCollections ++ noTokenCollections) {
      val ds = repro.eval.ErDataset("degenerate", pc, GroundTruth(Set.empty), psnKey = Some(_.text))
      for (name <- repro.eval.Experiments.aucMethods(ds)) {
        val clue = s"$name ${pc.erType} |P|=${pc.size}"
        val ps = repro.eval.Experiments.method(ds, name).emissions.map(_.pair).toVector
        ps.foreach { case (i, j) => assert(i < j && pc.validPair(i, j), clue) }
        if (Set("GS-PSN", "PBS", "PPS")(name)) assert(ps.distinct.size === ps.size, clue)
      }
    }
  }

  test("recall curves are monotone and bounded for every method") {
    for (pc <- samples(collectionGen, 20)) {
      val gt = GroundTruth.fromPairs(
        pc.profiles.indices.sliding(2).collect { case Seq(a, b) => (a, b) }.toSeq)
      val nl = NeighborList.build(pc)
      for (m <- Seq(new SAPSN(pc, nl), new PBS(pc, fullIndex(pc)))) {
        val curve = repro.eval.Metrics.recallCurve(m.emissions, gt, 200)
        assert(curve.forall(r => r >= 0.0 && r <= 1.0))
        assert(curve.zip(curve.tail).forall { case (a, b) => a <= b })
      }
    }
  }

  test("AUC* is within [0, 1] for every achievable curve") {
    // an achievable curve gains at most one match (1/|D|) per emission —
    // generate random match/non-match emission sequences and fold them
    val gtSize = 7
    val seqGen = Gen.listOf(Gen.oneOf(true, false))
    for (hits <- samples(seqGen, 40)) {
      var found = 0
      val curve = hits.map { h =>
        if (h && found < gtSize) found += 1
        found.toDouble / gtSize
      }.toArray
      for (e <- Seq(1.0, 5.0, 20.0)) {
        val s = repro.eval.Metrics.aucStar(curve, gtSize, e)
        assert(s >= 0.0 && s <= 1.0 + 1e-9, s"ec*=$e curve=${curve.toSeq}")
      }
    }
  }
}
