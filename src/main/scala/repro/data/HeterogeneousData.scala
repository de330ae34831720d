package repro.data

import repro.core._
import repro.eval.ErDataset
import scala.util.Random
import GenUtil._

/** Synthetic analogs of the paper's three *large, heterogeneous* Clean-clean
  * ER datasets (Table 2), SF-scaled (DESIGN.md §4). The noise between the two
  * sources is **token-level** (different schemata, rephrased values, URIs),
  * which is what makes equality-based methods robust and similarity-based
  * ones fragile on this class of data (Sec. 8).
  *
  * Profile ids: source 1 occupies `[0, n1)`, source 2 occupies `[n1, n1+n2)`.
  */
object HeterogeneousData {

  private def build(
      name: String,
      s1: Vector[Vector[(String, String)]],
      s2: Vector[Vector[(String, String)]],
      matches: Seq[(Int, Int)]): ErDataset = {
    val n1 = s1.size
    val profiles =
      s1.zipWithIndex.map { case (a, i) => Profile(i, 1, a) } ++
      s2.zipWithIndex.map { case (a, i) => Profile(n1 + i, 2, a) }
    ErDataset(
      name,
      ProfileCollection(profiles, CleanCleanEr),
      GroundTruth.fromPairs(matches.map { case (i1, i2) => (i1, n1 + i2) }))
  }

  // ------------------------------------------------------------------ movies

  /** movies-like (imdb vs dbpedia): n1 = 28k·scale, n2 = 23k·scale, every
    * source-2 movie matches a source-1 movie; 4 vs 7 attributes, |p̄| ≈ 7.
    * Matching evidence: shared title words, director and cast names
    * (moderate-frequency tokens); drift is schematic and token-level.
    */
  def movies(scale: Double = 0.1, seed: Long = 23): ErDataset = {
    val rnd = new Random(seed)
    val n1 = math.max(60, math.round(28000 * scale).toInt)
    val n2 = math.max(40, math.round(23000 * scale).toInt)
    require(n2 <= n1)

    val titleVocab = vocab(rnd, math.max(400, n1), 2, 3)
    val people     = vocab(rnd, math.max(300, n1 / 2)).map(f => s"$f ${word(rnd, 2, 3)}")
    val countries  = vocab(rnd, 20)
    val languages  = vocab(rnd, 15)
    val monthsV    = Vector("january", "march", "may", "june", "august", "october", "december")

    final case class Movie(title: Vector[String], director: String, actors: Vector[String], year: Int)
    val base = Vector.fill(n1)(Movie(
      title    = Vector.fill(2 + rnd.nextInt(3))(titleVocab(zipf(rnd, titleVocab.size, 0.55))).distinct,
      director = people(zipf(rnd, people.size, 0.6)),
      actors   = Vector.fill(4)(people(zipf(rnd, people.size, 0.6))).distinct,
      year     = 1950 + rnd.nextInt(66)))

    val s1 = base.map { m =>
      Vector(
        "title"    -> m.title.mkString(" "),
        "director" -> m.director,
        "actors"   -> m.actors.mkString(" "),
        "year"     -> m.year.toString)
    }

    val matchedIdx = rnd.shuffle(base.indices.toVector).take(n2)
    val s2 = matchedIdx.map { i =>
      val m = base(i)
      val name = m.title.mkString(" ") + (if (rnd.nextDouble() < 0.2) " film" else "")
      val director =
        if (rnd.nextDouble() < 0.3) m.director.split(" ").map(_.take(1)).head + " " + m.director.split(" ").last
        else m.director
      Vector(
        "name"     -> name,
        "director" -> director,
        "starring" -> rnd.shuffle(m.actors).take(2 + rnd.nextInt(2)).mkString(" "),
        "released" -> s"${m.year} ${pick(rnd, monthsV)}",
        "runtime"  -> (70 + rnd.nextInt(120)).toString,
        "country"  -> pick(rnd, countries),
        "language" -> pick(rnd, languages))
    }

    build("movies", s1, s2, matchedIdx.zipWithIndex)
  }

  // ----------------------------------------------------------------- dbpedia

  /** dbpedia-like (two DBpedia snapshots): n1 = 1.2k·scale, n2 = 2.2k·scale,
    * matches ≈ 0.893k·scale; the snapshots share only ~25 % of their
    * name-value pairs (paper footnote 2), |p̄| ≈ 15.
    */
  def dbpedia(scale: Double = 1.0, seed: Long = 29): ErDataset = {
    val rnd = new Random(seed)
    val n1 = math.max(60, math.round(1200 * scale).toInt)
    val n2 = math.max(60, math.round(2200 * scale).toInt)
    val nM = math.min(math.min(n1, n2), math.max(30, math.round(893 * scale).toInt))

    val nEntities  = n1 + n2 - nM
    val nameVocab  = vocab(rnd, math.max(500, nEntities), 2, 3)
    val propVocab  = vocab(rnd, 60)
    val valueVocab = vocab(rnd, 5000)

    final case class Ent(name: Vector[String], pairs: Vector[(String, Vector[String])])
    def entity(): Ent = Ent(
      name  = Vector.fill(2)(nameVocab(rnd.nextInt(nameVocab.size))),
      pairs = Vector.fill(14)((
        propVocab(zipf(rnd, propVocab.size, 0.7)),
        Vector.fill(1 + rnd.nextInt(3))(valueVocab(zipf(rnd, valueVocab.size, 0.7))))))
    val entities = Vector.fill(nEntities)(entity())

    /** Snapshot-1 rendering: name + every infobox pair verbatim. */
    def snap1(e: Ent): Vector[(String, String)] =
      ("name" -> e.name.mkString(" ")) +: e.pairs.map { case (p, v) => (p, v.mkString(" ")) }

    /** Snapshot-2 rendering: only ~25 % of pairs survive identical; the rest
      * are re-valued, renamed or replaced (token-level churn).
      */
    def snap2(e: Ent): Vector[(String, String)] = {
      val name =
        if (rnd.nextDouble() < 0.9) e.name
        else e.name.updated(rnd.nextInt(e.name.size), nameVocab(rnd.nextInt(nameVocab.size)))
      val pairs = e.pairs.map { case (p, v) =>
        rnd.nextDouble() match {
          case d if d < 0.25 => (p, v)                                           // identical pair
          case d if d < 0.60 =>                                                  // new value
            (p, Vector.fill(1 + rnd.nextInt(3))(valueVocab(zipf(rnd, valueVocab.size, 0.7))))
          case d if d < 0.80 => (propVocab(zipf(rnd, propVocab.size, 0.7)), v)   // renamed property
          case _ =>                                                              // replaced pair
            (propVocab(zipf(rnd, propVocab.size, 0.7)),
             Vector.fill(1 + rnd.nextInt(3))(valueVocab(zipf(rnd, valueVocab.size, 0.7))))
        }
      }
      ("name" -> name.mkString(" ")) +: pairs.map { case (p, v) => (p, v.mkString(" ")) }
    }

    // entities [0, nM) exist in both snapshots; [nM, n1) only in snapshot 1;
    // [n1, nEntities) only in snapshot 2
    val s1 = (0 until n1).map(i => snap1(entities(i))).toVector
    val s2idx = (0 until nM) ++ (n1 until nEntities)
    val s2 = s2idx.map(i => snap2(entities(i))).toVector
    build("dbpedia", s1, s2, (0 until nM).map(i => (i, i)))
  }

  // ---------------------------------------------------------------- freebase

  /** freebase-like (freebase vs dbpedia RDF): n1 = 1.4k·scale,
    * n2 = 1.23k·scale, matches = 0.5k·scale (paper ratio 4.2M/3.7M/1.5M).
    *
    * Attribute values are URIs. Matching pairs share ~6 mid-frequency *topic*
    * tokens (block size ≈ 150), while every profile also carries
    * unique id tokens and universal RDF keywords. Equality-based methods
    * exploit the shared topic blocks (ARCS); for similarity-based methods the
    * Neighbor List is dominated by URI junk whose alphabetical order is
    * meaningless — the failure mode of Sec. 7.2.
    */
  def freebase(scale: Double = 1.0, seed: Long = 31): ErDataset = {
    val rnd = new Random(seed)
    val n1 = math.max(80, math.round(1400 * scale).toInt)
    val n2 = math.max(70, math.round(1230 * scale).toInt)
    val nM = math.min(math.min(n1, n2), math.max(30, math.round(500 * scale).toInt))

    val nEntities   = n1 + n2 - nM
    val topicsPer   = 6
    val topicFreq   = 150
    val vocabSize   = math.max(20, 2 * nEntities * topicsPer / topicFreq)
    val topicVocab  = vocab(rnd, vocabSize, 3, 4)

    def uid(): String = "m0" + digits(rnd, 6)

    def topicsOf(): Vector[String] =
      Vector.fill(topicsPer)(topicVocab(rnd.nextInt(topicVocab.size))).distinct

    /** Freebase-side rendering: ns/m.<uid> mids, ns/base.<topic> URIs, RDF
      * type statements and opaque keys.
      */
    def fb(topics: Vector[String]): Vector[(String, String)] =
      Vector(
        "rdf:type" -> "http://rdf.freebase.com/ns/type.object",
        "ns:mid"   -> s"http://rdf.freebase.com/ns/m.${uid()}",
        "ns:key"   -> s"http://rdf.freebase.com/key/${uid()}",
        "ns:stamp" -> digits(rnd, 8)) ++
      topics.map(t => "ns:topic" -> s"http://rdf.freebase.com/ns/base.$t") ++
      Vector.fill(4)("ns:prop" -> s"http://rdf.freebase.com/ns/${uid()}")

    /** DBpedia-side rendering: resource/Category URIs + owl keywords. */
    def dbp(topics: Vector[String]): Vector[(String, String)] =
      Vector(
        "rdf:about" -> s"http://dbpedia.org/resource/${uid()}",
        "rdf:type"  -> "http://www.w3.org/2002/07/owl#Thing") ++
      topics.map(t => "dbo:subject" -> s"http://dbpedia.org/resource/Category:$t") ++
      Vector.fill(3)("dbo:wikiPageID" -> digits(rnd, 7))

    val entityTopics = Vector.fill(nEntities)(topicsOf())
    val s1 = (0 until n1).map(i => fb(entityTopics(i))).toVector
    val s2idx = (0 until nM) ++ (n1 until nEntities)
    val s2 = s2idx.map(i => dbp(entityTopics(i))).toVector
    build("freebase", s1, s2, (0 until nM).map(i => (i, i)))
  }
}
