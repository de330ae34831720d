package repro.data

import repro.SparkSpec
import repro.core._

class DataGeneratorsSpec extends SparkSpec {

  // ------------------------------------------------------------- structured

  test("census matches Table 2: 841 profiles, 344 matches, 5 attributes") {
    val ds = StructuredData.census()
    assert(ds.pc.size === 841)
    assert(ds.gt.size === 344)
    assert(ds.pc.profiles.flatMap(_.attrs.map(_._1)).distinct.size === 5)
    assert(ds.pc.erType === DirtyEr)
  }

  test("census duplicates keep character-level proximity (soundex key robust)") {
    val ds = StructuredData.census()
    val key = ds.psnKey.get
    val sameKey = ds.gt.pairs.count { case (i, j) =>
      key(ds.pc.profiles(i)) == key(ds.pc.profiles(j))
    }
    assert(sameKey.toDouble / ds.gt.size > 0.6, s"only $sameKey of ${ds.gt.size} share the PSN key")
  }

  test("restaurant matches Table 2: 864 profiles, 112 matches, 5 attributes") {
    val ds = StructuredData.restaurant()
    assert(ds.pc.size === 864)
    assert(ds.gt.size === 112)
    assert(ds.pc.profiles.flatMap(_.attrs.map(_._1)).distinct.size === 5)
  }

  test("restaurant duplicates have high token overlap") {
    val ds = StructuredData.restaurant()
    val overlaps = ds.gt.pairs.toSeq.map { case (i, j) =>
      val a = Reference.profileKeys(ds.pc.profiles(i)).toSet
      val b = Reference.profileKeys(ds.pc.profiles(j)).toSet
      a.intersect(b).size.toDouble / a.union(b).size
    }
    assert(overlaps.sum / overlaps.size > 0.5)
  }

  test("cora matches Table 2 shape: 1300 profiles, ~15.9k matches, ≤12 attributes") {
    val ds = StructuredData.cora()
    assert(ds.pc.size === 1300)
    assert(ds.gt.size === 15875)
    assert(ds.pc.profiles.flatMap(_.attrs.map(_._1)).distinct.size <= 12)
  }

  test("cora has large equivalence clusters") {
    val ds = StructuredData.cora()
    // 20 clusters of 35 → some profile participates in 34 matches
    val degree = ds.gt.pairs.toSeq.flatMap(p => Seq(p._1, p._2))
      .groupBy(identity).values.map(_.size).max
    assert(degree === 34)
  }

  test("cddb scales: profiles ≈ 9800·scale, ≥ 20 matches, ≤ ~106 attributes") {
    val ds = StructuredData.cddb(0.1)
    assert(ds.pc.size === 980)
    assert(ds.gt.size === 30)
    assert(ds.pc.profiles.flatMap(_.attrs.map(_._1)).distinct.size <= 106)
  }

  test("cddb mean name-value pairs per profile is near 18.75") {
    val ds = StructuredData.cddb(0.1)
    val pBar = ds.pc.profiles.map(_.attrs.size).sum.toDouble / ds.pc.size
    assert(pBar > 14 && pBar < 24, s"pBar=$pBar")
  }

  test("structured generators are deterministic in the seed") {
    val a = StructuredData.census(seed = 5)
    val b = StructuredData.census(seed = 5)
    assert(a.pc.profiles === b.pc.profiles)
    assert(a.gt === b.gt)
  }

  test("different seeds give different data") {
    val a = StructuredData.census(seed = 5)
    val b = StructuredData.census(seed = 6)
    assert(a.pc.profiles !== b.pc.profiles)
  }

  // ---------------------------------------------------------- heterogeneous

  test("movies: two sources, every source-2 profile matches") {
    val ds = HeterogeneousData.movies(0.02)
    val (p1, p2) = ds.pc.profiles.partition(_.source == 1)
    assert(ds.pc.erType === CleanCleanEr)
    assert(p1.size === 560)
    assert(p2.size === 460)
    assert(ds.gt.size === 460)
  }

  test("movies ground truth pairs are cross-source") {
    val ds = HeterogeneousData.movies(0.02)
    ds.gt.pairs.foreach { case (i, j) =>
      assert(ds.pc.source(i) != ds.pc.source(j))
    }
  }

  test("movies schemata differ: 4 vs 7 attributes") {
    val ds = HeterogeneousData.movies(0.02)
    val (p1, p2) = ds.pc.profiles.partition(_.source == 1)
    assert(p1.flatMap(_.attrs.map(_._1)).distinct.size === 4)
    assert(p2.flatMap(_.attrs.map(_._1)).distinct.size === 7)
  }

  test("movies matching pairs share title tokens") {
    val ds = HeterogeneousData.movies(0.02)
    val shared = ds.gt.pairs.toSeq.map { case (i, j) =>
      Reference.profileKeys(ds.pc.profiles(i)).toSet
        .intersect(Reference.profileKeys(ds.pc.profiles(j)).toSet).size
    }
    assert(shared.count(_ >= 2).toDouble / shared.size > 0.9)
  }

  test("dbpedia: snapshot sizes and match count follow Table 2 ratios") {
    val ds = HeterogeneousData.dbpedia(0.5)
    val (p1, p2) = ds.pc.profiles.partition(_.source == 1)
    assert(p1.size === 600)
    assert(p2.size === 1100)
    assert(ds.gt.size === 447)
  }

  test("dbpedia snapshots share roughly 25% of name-value pairs") {
    val ds = HeterogeneousData.dbpedia(0.5)
    val fracs = ds.gt.pairs.toSeq.map { case (i, j) =>
      val a = ds.pc.profiles(i).attrs.toSet
      val b = ds.pc.profiles(j).attrs.toSet
      a.intersect(b).size.toDouble / math.min(a.size, b.size)
    }
    val mean = fracs.sum / fracs.size
    assert(mean > 0.15 && mean < 0.45, s"mean shared fraction = $mean")
  }

  test("freebase: sizes follow the paper's 4.2/3.7/1.5 ratio") {
    val ds = HeterogeneousData.freebase(1.0)
    val (p1, p2) = ds.pc.profiles.partition(_.source == 1)
    assert(p1.size === 1400)
    assert(p2.size === 1230)
    assert(ds.gt.size === 500)
  }

  test("freebase matching pairs share topic tokens despite URI noise") {
    val ds = HeterogeneousData.freebase(1.0)
    val shared = ds.gt.pairs.toSeq.map { case (i, j) =>
      Reference.profileKeys(ds.pc.profiles(i)).toSet
        .intersect(Reference.profileKeys(ds.pc.profiles(j)).toSet)
    }
    // the universal RDF keywords (http, com/org …) are shared too, but each
    // pair must share several topic-specific tokens on top
    assert(shared.forall(_.size >= 4))
  }

  test("freebase values are URIs (tokens include the RDF keywords)") {
    val ds = HeterogeneousData.freebase(1.0)
    val someTokens = Reference.profileKeys(ds.pc.profiles.head).toSet
    assert(someTokens.contains("http"))
    assert(someTokens.contains("freebase"))
  }

  test("heterogeneous generators are deterministic in the seed") {
    val a = HeterogeneousData.freebase(0.5, seed = 9)
    val b = HeterogeneousData.freebase(0.5, seed = 9)
    assert(a.pc.profiles === b.pc.profiles)
    assert(a.gt === b.gt)
  }

  test("the datasets registry exposes all 7 datasets") {
    val names = (Reference.structuredSmall ++ Reference.heterogeneousSmall).map(_.name)
    assert(names === Seq("census", "restaurant", "cora", "cddb", "movies", "dbpedia", "freebase"))
  }
}
