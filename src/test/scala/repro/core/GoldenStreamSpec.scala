package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import repro.SparkSpec
import repro.blocking.{ProfileIndex, TokenBlocking, TokenBlockingWorkflow}
import repro.data.{HeterogeneousData, StructuredData}

/** Golden emission streams: the exact emission sequence of every method on
  * the paper's running example, one test-scale Dirty ER dataset (cddb) and
  * one test-scale Clean-clean ER dataset (movies), plus the Neighbor List
  * they share.
  *
  * A stream is pinned by its length, a digest of every emission (pair and
  * the raw bits of its weight) and its first emissions written out, so a
  * change that reorders ties or perturbs a weight in its last bit fails here
  * even when the pair *set* and the AUC* stay the same. Streams longer than
  * `Cap` are pinned on their first `Cap` emissions (SA-PSN's full stream is
  * quadratic in |NL|).
  */
class GoldenStreamSpec extends SparkSpec {
  import GoldenStreamSpec._

  for ((dataset, expected) <- ExpectedNl)
    test(s"$dataset: Neighbor List entries and keys are unchanged") {
      assert(pinNl(dataset) === expected)
    }

  for ((dataset, streams) <- Expected; (stream, expected) <- streams)
    test(s"$dataset: $stream stream is unchanged") {
      assert(capture(dataset, stream) === expected)
    }
}

object GoldenStreamSpec {

  /** A pinned stream: emissions pinned, their digest, and the first
    * `HeadSize` of them as (i, j, raw weight bits).
    */
  final case class Pinned(count: Int, digest: String, head: Seq[(Int, Int, Long)])

  /** A pinned Neighbor List: its size, a digest of every (entry, key) and
    * its first `HeadSize` (key, entry) placements.
    */
  final case class PinnedNl(size: Int, digest: String, head: Seq[(String, Int)])

  val Cap = 200000
  val HeadSize = 20

  private val cddb = StructuredData.cddb(0.05)

  private val collections: Map[String, ProfileCollection] = Map(
    "paper"  -> PaperExample.pc,
    "cddb"   -> cddb.pc,
    "movies" -> HeterogeneousData.movies(0.02).pc)

  /** GS-PSN's w_max per dataset. */
  private val wMax = Map("paper" -> 5, "cddb" -> 20, "movies" -> 20)

  /** PSN's schema-based key: cddb's expert key, the paper example's first
    * attribute value.
    */
  private val psnKey: Map[String, Profile => String] = Map(
    "paper" -> (_.attrs.head._2),
    "cddb"  -> cddb.psnKey.get)

  private def hex(md: MessageDigest): String = md.digest().map(b => f"$b%02x").mkString

  private def pin(cs: Iterator[Comparison]): Pinned = {
    val md = MessageDigest.getInstance("SHA-256")
    val head = Vector.newBuilder[(Int, Int, Long)]
    val buf = java.nio.ByteBuffer.allocate(16)
    var n = 0
    for (c <- cs.take(Cap)) {
      val bits = java.lang.Double.doubleToRawLongBits(c.weight)
      buf.clear(); buf.putInt(c.i).putInt(c.j).putLong(bits)
      md.update(buf.array())
      if (n < HeadSize) head += ((c.i, c.j, bits))
      n += 1
    }
    Pinned(n, hex(md), head.result())
  }

  def pinNl(dataset: String): PinnedNl = {
    val nl = NeighborList.build(collections(dataset))
    val md = MessageDigest.getInstance("SHA-256")
    for (pos <- 0 until nl.size) {
      md.update(java.nio.ByteBuffer.allocate(4).putInt(nl.entries(pos)).array())
      md.update(nl.keys(pos).getBytes(UTF_8))
      md.update(0.toByte)
    }
    val head = (0 until math.min(HeadSize, nl.size)).map(pos => (nl.keys(pos), nl.entries(pos)))
    PinnedNl(nl.size, hex(md), head)
  }

  /** Pin one stream of one dataset. */
  def capture(dataset: String, stream: String): Pinned = {
    val pc = collections(dataset)
    lazy val nl = NeighborList.build(pc)
    // The paper example is too small for Block Purging (every block holds
    // more than 10 % of its six profiles), so it keeps all token blocks.
    lazy val pi =
      if (dataset == "paper") ProfileIndex.build(TokenBlocking.build(pc))
      else TokenBlockingWorkflow.profileIndex(pc)
    stream match {
      case "PSN"     => pin(new PSN(pc, psnKey(dataset)).emissions)
      case "SA-PSN"  => pin(new SAPSN(pc, nl).emissions)
      case "SA-PSAB" => pin(new SAPSAB(pc, lMin = 4).emissions)
      case "LS-PSN"  =>
        val ls = new LSPSN(pc, nl)
        pin((1 to 3).iterator.flatMap(ls.windowComparisons(_).iterator))
      case "GS-PSN"  => pin(new GSPSN(pc, nl, wMax(dataset)).emissions)
      case "PBS"     => pin(new PBS(pc, pi).emissions)
      case "PPS"     => pin(new PPS(pc, pi, kMax = 50).emissions)
    }
  }

  // Captured from the implementation before the primitive window-scan kernel,
  // except the cddb and movies PPS digests: PPS sums every duplication
  // likelihood in the neighbourhood kernel's first-touch order, which moves
  // profiles with likelihoods equal up to rounding in the Sorted Profile
  // List (count and first emissions unchanged; PropertySpec checks the
  // stream against a boxed reference PPS).
  // The PSN streams were captured from PSN's own sliding-window loop.
  val ExpectedNl: Seq[(String, PinnedNl)] = Seq(
    "paper" -> PinnedNl(23, "e0e8fbf604ae1cf49d4d3853ffbed93ffcca1f3b541ba2f424390c6cc449ef5b", Seq(
      ("baker", 3), ("baker", 4), ("brown", 3), ("brown", 4), ("carl", 3),
      ("carl", 4), ("ellen", 1), ("ellen", 0), ("green", 5), ("john", 5),
      ("smith", 2), ("smith", 1), ("smith", 0), ("tailor", 2), ("tailor", 0),
      ("tailor", 1), ("town", 5), ("white", 0), ("white", 3), ("white", 2))),
    "cddb" -> PinnedNl(16835, "30600aa5ac12e15f29b95b240ddd8a0a67109c8ee4ab0864340c826c5fa81ab3", Seq(
      ("1960", 411), ("1960", 30), ("1960", 87), ("1960", 186), ("1960", 394),
      ("1960", 41), ("1960", 105), ("1960", 215), ("1960", 243), ("1960", 367),
      ("1960", 221), ("1960", 64), ("1960", 382), ("1960", 299), ("1961", 325),
      ("1961", 31), ("1961", 398), ("1961", 319), ("1961", 443), ("1961", 203))),
    "movies" -> PinnedNl(14665, "ad88e8eba249cf0d638f632a396776202a4aef29f526539492133429264b9e49", Seq(
      ("100", 643), ("100", 945), ("100", 832), ("101", 885), ("101", 692),
      ("101", 839), ("101", 972), ("101", 770), ("102", 637), ("102", 798),
      ("102", 564), ("103", 743), ("103", 777), ("103", 922), ("103", 697),
      ("103", 877), ("103", 634), ("104", 702), ("104", 601), ("104", 824))),
  )

  val Expected: Seq[(String, Seq[(String, Pinned)])] = Seq(
    "paper" -> Seq(
      "PSN" -> Pinned(15, "be0c0960674df066fbcc10a6efd13afde51e8d703e796c53472d37b9939f7172", Seq(
        (3, 4, 0L), (0, 4, 0L), (0, 1, 0L),
        (1, 5, 0L), (2, 5, 0L), (0, 3, 0L),
        (1, 4, 0L), (0, 5, 0L), (1, 2, 0L),
        (1, 3, 0L), (4, 5, 0L), (0, 2, 0L),
        (3, 5, 0L), (2, 4, 0L), (2, 3, 0L))),
      "SA-PSN" -> Pinned(220, "648bd73fd48081a9f0281bf64545b905622b7f5968ec403ee751d3c69ced4868", Seq(
        (3, 4, 0L), (3, 4, 0L), (3, 4, 0L),
        (3, 4, 0L), (3, 4, 0L), (1, 4, 0L),
        (0, 1, 0L), (0, 5, 0L), (2, 5, 0L),
        (1, 2, 0L), (0, 1, 0L), (0, 2, 0L),
        (0, 2, 0L), (0, 1, 0L), (1, 5, 0L),
        (0, 5, 0L), (0, 3, 0L), (2, 3, 0L),
        (1, 2, 0L), (1, 4, 0L))),
      "SA-PSAB" -> Pinned(52, "d92cadb454d2d1390695d5b694d5ac81524c0c39b4674734832ee6f1a4129358", Seq(
        (0, 1, 0L), (0, 2, 0L), (1, 2, 0L),
        (3, 4, 0L), (3, 4, 0L), (0, 1, 0L),
        (0, 1, 0L), (0, 2, 0L), (1, 2, 0L),
        (0, 1, 0L), (0, 2, 0L), (1, 2, 0L),
        (0, 1, 0L), (0, 2, 0L), (0, 3, 0L),
        (0, 4, 0L), (0, 5, 0L), (1, 2, 0L),
        (1, 3, 0L), (1, 4, 0L))),
      "LS-PSN" -> Pinned(31, "cc7e77cd03650353d7a5cbe865931807043d557cc0ca0d79ebc2d08f0bb1fa55", Seq(
        (3, 4, 0x3ffaaaaaaaaaaaabL), (0, 1, 0x3fe3333333333333L), (0, 2, 0x3fd999999999999aL),
        (1, 2, 0x3fd999999999999aL), (0, 5, 0x3fd5555555555555L), (1, 4, 0x3fd5555555555555L),
        (2, 3, 0x3fc5555555555555L), (2, 5, 0x3fc5555555555555L), (0, 3, 0x3fc2492492492492L),
        (1, 5, 0x3fc2492492492492L), (4, 5, 0x3fc2492492492492L), (1, 5, 0x3fe3333333333333L),
        (0, 2, 0x3fd999999999999aL), (1, 2, 0x3fd999999999999aL), (0, 5, 0x3fd5555555555555L),
        (1, 3, 0x3fd5555555555555L), (2, 4, 0x3fc5555555555555L), (2, 5, 0x3fc5555555555555L),
        (0, 1, 0x3fc2492492492492L), (0, 4, 0x3fc2492492492492L))),
      "GS-PSN" -> Pinned(15, "670b3c77d234a91212cd1b0a669c7e7add161f1d81220e3f9cc0ec1ea1299383", Seq(
        (3, 4, 0x3fd5555555555555L), (0, 2, 0x3fd2f684bda12f68L), (0, 5, 0x3fd294a5294a5295L),
        (0, 1, 0x3fd0000000000000L), (1, 2, 0x3fd0000000000000L), (1, 5, 0x3fd0000000000000L),
        (2, 5, 0x3fd0000000000000L), (4, 5, 0x3fc2492492492492L), (0, 3, 0x3fbc71c71c71c71cL),
        (1, 3, 0x3fbc71c71c71c71cL), (1, 4, 0x3fbc71c71c71c71cL), (3, 5, 0x3fbc71c71c71c71cL),
        (0, 4, 0x3fb4c1bacf914c1cL), (2, 3, 0x3faf07c1f07c1f08L), (2, 4, 0x3faf07c1f07c1f08L))),
      "PBS" -> Pinned(15, "7875c71ef1f7bb3430707056edfcfe5beaaffdaa5422c02b5dc7fadc25ee511a", Seq(
        (3, 4, 0x4008888888888889L), (0, 1, 0x3ffbbbbbbbbbbbbbL), (0, 2, 0x3fe7777777777777L),
        (1, 2, 0x3fe7777777777777L), (0, 3, 0x3fb1111111111111L), (0, 4, 0x3fb1111111111111L),
        (0, 5, 0x3fb1111111111111L), (1, 3, 0x3fb1111111111111L), (1, 4, 0x3fb1111111111111L),
        (1, 5, 0x3fb1111111111111L), (2, 3, 0x3fb1111111111111L), (2, 4, 0x3fb1111111111111L),
        (2, 5, 0x3fb1111111111111L), (3, 5, 0x3fb1111111111111L), (4, 5, 0x3fb1111111111111L))),
      "PPS" -> Pinned(15, "272a3c4f25e9735fad1e12f2ed99c9baf0ec1cff09d3aa96c2106605b5ba2b82", Seq(
        (3, 4, 0x4008888888888889L), (0, 1, 0x3ffbbbbbbbbbbbbbL), (0, 2, 0x3fe7777777777777L),
        (0, 5, 0x3fb1111111111111L), (0, 3, 0x3fb1111111111111L), (1, 3, 0x3fb1111111111111L),
        (2, 3, 0x3fb1111111111111L), (3, 5, 0x3fb1111111111111L), (0, 4, 0x3fb1111111111111L),
        (1, 4, 0x3fb1111111111111L), (2, 4, 0x3fb1111111111111L), (4, 5, 0x3fb1111111111111L),
        (1, 2, 0x3fe7777777777777L), (1, 5, 0x3fb1111111111111L), (2, 5, 0x3fb1111111111111L))),
    ),
    "cddb" -> Seq(
      "PSN" -> Pinned(119805, "ec6e081dfcf740e9cab5636b055e0f6a3839739012da1970e4704eeb0e48dabf", Seq(
        (7, 116, 0L), (116, 333, 0L), (151, 333, 0L),
        (151, 201, 0L), (201, 385, 0L), (266, 385, 0L),
        (266, 344, 0L), (118, 344, 0L), (118, 311, 0L),
        (311, 487, 0L), (25, 487, 0L), (25, 350, 0L),
        (77, 350, 0L), (77, 276, 0L), (49, 276, 0L),
        (49, 267, 0L), (184, 267, 0L), (184, 243, 0L),
        (243, 398, 0L), (398, 434, 0L))),
      "SA-PSN" -> Pinned(200000, "8b84d9c32efa5447287527dd8b588cb5993a307b564ab32e72c4ee47b601ffda", Seq(
        (30, 411, 0L), (30, 87, 0L), (87, 186, 0L),
        (186, 394, 0L), (41, 394, 0L), (41, 105, 0L),
        (105, 215, 0L), (215, 243, 0L), (243, 367, 0L),
        (221, 367, 0L), (64, 221, 0L), (64, 382, 0L),
        (299, 382, 0L), (299, 325, 0L), (31, 325, 0L),
        (31, 398, 0L), (319, 398, 0L), (319, 443, 0L),
        (203, 443, 0L), (203, 321, 0L))),
      "SA-PSAB" -> Pinned(79328, "b9af9661bec711cc6484fae602f3b883e57bded3ba0918735a9bfefbf0f3a190", Seq(
        (2, 32, 0L), (2, 50, 0L), (2, 56, 0L),
        (2, 65, 0L), (2, 70, 0L), (2, 77, 0L),
        (2, 90, 0L), (2, 95, 0L), (2, 96, 0L),
        (2, 112, 0L), (2, 122, 0L), (2, 126, 0L),
        (2, 139, 0L), (2, 152, 0L), (2, 158, 0L),
        (2, 162, 0L), (2, 180, 0L), (2, 198, 0L),
        (2, 253, 0L), (2, 258, 0L))),
      "LS-PSN" -> Pinned(45691, "2cc9cfac1768d24658f66eaecad1d9c27a260b4e2683611a827870257d0d91dd", Seq(
        (46, 80, 0x3fe0000000000000L), (71, 259, 0x3fdec4ec4ec4ec4fL), (40, 216, 0x3fdd89d89d89d89eL),
        (132, 476, 0x3fdc9882b9310572L), (116, 368, 0x3fdbd37a6f4de9bdL), (10, 114, 0x3fdb000000000000L),
        (25, 350, 0x3fdaf286bca1af28L), (213, 428, 0x3fdad6b5ad6b5ad7L), (263, 278, 0x3fda000000000000L),
        (72, 431, 0x3fd9503d226357e1L), (64, 87, 0x3fd89d89d89d89d9L), (279, 292, 0x3fd7000000000000L),
        (332, 418, 0x3fd6f1826a439f65L), (147, 206, 0x3fd6969696969697L), (35, 172, 0x3fd674c59d31674cL),
        (7, 211, 0x3fd64d9364d9364eL), (373, 462, 0x3fd36db6db6db6dbL), (108, 434, 0x3fd294a5294a5295L),
        (479, 484, 0x3fd1c71c71c71c72L), (52, 333, 0x3fcd1745d1745d17L))),
      "GS-PSN" -> Pinned(106560, "758b223f3f0bf16ca78e690fb00c00b2b98546cc0b0c68fd06150c4ead0e9d70", Seq(
        (71, 259, 0x3f9e1e1e1e1e1e1eL), (132, 476, 0x3f9d6f271dd24cafL), (72, 431, 0x3f9b43f3e9cb4bd3L),
        (10, 114, 0x3f99f5e77b500b8aL), (35, 172, 0x3f99e823738ed407L), (332, 418, 0x3f9982470f7ccfb7L),
        (40, 216, 0x3f99681cb87982a0L), (7, 211, 0x3f995975c1ce2f75L), (213, 428, 0x3f9908a481efe829L),
        (373, 462, 0x3f97ae31df5984efL), (147, 206, 0x3f978810b324a02bL), (25, 350, 0x3f9745d1745d1746L),
        (46, 80, 0x3f96f5ab0ca0b7adL), (52, 333, 0x3f96482c905920b2L), (108, 434, 0x3f963b8124f1f0f6L),
        (479, 484, 0x3f95980245e54abaL), (116, 368, 0x3f956201301c82acL), (279, 292, 0x3f95054150541505L),
        (64, 87, 0x3f944e52ac99bebbL), (263, 278, 0x3f9288b01288b013L))),
      "PBS" -> Pinned(6510, "9e747df9eb44c319c7eaec4222de942543b01f8cf4002442d41fa913858d2784", Seq(
        (160, 439, 0x3ff0000000000000L), (112, 201, 0x3ff0000000000000L), (218, 220, 0x3ff0000000000000L),
        (332, 418, 0x402d000000000001L), (133, 353, 0x3ff0000000000000L), (289, 328, 0x3ff0000000000000L),
        (132, 476, 0x4030000000000000L), (9, 337, 0x3ff0000000000000L), (289, 315, 0x3ff0000000000000L),
        (71, 259, 0x4031a22222222223L), (134, 268, 0x3ff0000000000000L), (284, 465, 0x3ff0000000000000L),
        (131, 486, 0x3ff0000000000000L), (10, 114, 0x4038aaaaaaaaaaa8L), (159, 173, 0x3ff0000000000000L),
        (336, 457, 0x3ff0000000000000L), (119, 167, 0x3ff199999999999aL), (192, 203, 0x3ff0000000000000L),
        (36, 344, 0x3ff0000000000000L), (298, 348, 0x3ff0000000000000L))),
      "PPS" -> Pinned(6462, "ccc0fbee31251910486f88b7948307aecf69cb1c1c6d927dab27e8467f66ca17", Seq(
        (72, 431, 0x4042aaaaaaaaaaadL), (40, 216, 0x4038fffffffffffdL), (10, 114, 0x4038aaaaaaaaaaa8L),
        (7, 211, 0x40342aaaaaaaaaaaL), (279, 292, 0x40322aaaaaaaaaaaL), (71, 259, 0x4031a22222222223L),
        (35, 172, 0x403019999999999bL), (132, 476, 0x4030000000000000L), (332, 418, 0x402d000000000001L),
        (373, 462, 0x402caaaaaaaaaaacL), (147, 206, 0x402b888888888889L), (46, 80, 0x402b555555555557L),
        (25, 350, 0x402a555555555557L), (116, 368, 0x4026eeeeeeeeeef0L), (213, 428, 0x4025777777777777L),
        (64, 87, 0x4025555555555557L), (52, 333, 0x4020aaaaaaaaaaaaL), (479, 484, 0x401f555555555553L),
        (108, 434, 0x401d111111111111L), (263, 278, 0x401bbbbbbbbbbbbbL))),
    ),
    "movies" -> Seq(
      "SA-PSN" -> Pinned(200000, "854b83e7d287acb3517109ea0351efdee6bb69206e64be74c5fef9c6f6d01486", Seq(
        (533, 843, 0L), (533, 912, 0L), (95, 675, 0L),
        (95, 987, 0L), (342, 987, 0L), (94, 845, 0L),
        (34, 845, 0L), (479, 678, 0L), (295, 790, 0L),
        (385, 865, 0L), (154, 865, 0L), (154, 748, 0L),
        (514, 748, 0L), (514, 884, 0L), (519, 884, 0L),
        (196, 867, 0L), (146, 867, 0L), (489, 916, 0L),
        (206, 916, 0L), (206, 624, 0L))),
      "SA-PSAB" -> Pinned(200000, "f7987859ea2864b67efaa6ebf4840a1ee307adaa5964f77c0cc32caa75829655", Seq(
        (313, 576, 0L), (449, 684, 0L), (451, 684, 0L),
        (341, 643, 0L), (341, 737, 0L), (511, 643, 0L),
        (511, 737, 0L), (66, 584, 0L), (66, 896, 0L),
        (237, 584, 0L), (237, 896, 0L), (251, 718, 0L),
        (251, 808, 0L), (413, 718, 0L), (413, 808, 0L),
        (490, 718, 0L), (490, 808, 0L), (7, 743, 0L),
        (7, 843, 0L), (137, 743, 0L))),
      "LS-PSN" -> Pinned(17550, "880360b9b02aa52b976e185399303fbd605aad75a4856f949b6b37ff53f59f78", Seq(
        (166, 828, 0x3fd37a6f4de9bd38L), (308, 664, 0x3fceb851eb851eb8L), (91, 957, 0x3fcd89d89d89d89eL),
        (137, 743, 0x3fcd89d89d89d89eL), (513, 807, 0x3fcd89d89d89d89eL), (30, 663, 0x3fcbd37a6f4de9bdL),
        (311, 829, 0x3fcbd37a6f4de9bdL), (333, 733, 0x3fcbd37a6f4de9bdL), (295, 624, 0x3fcaaaaaaaaaaaabL),
        (427, 860, 0x3fcaaaaaaaaaaaabL), (99, 954, 0x3fc999999999999aL), (183, 866, 0x3fc999999999999aL),
        (249, 931, 0x3fc999999999999aL), (443, 909, 0x3fc999999999999aL), (444, 788, 0x3fc999999999999aL),
        (446, 569, 0x3fc999999999999aL), (221, 858, 0x3fc89d89d89d89d9L), (224, 653, 0x3fc7b425ed097b42L),
        (383, 757, 0x3fc7b425ed097b42L), (488, 662, 0x3fc7b425ed097b42L))),
      "GS-PSN" -> Pinned(91734, "f8cc7c0c9ac16b3936eba8c1a07f633f13e9043028031f2bc2e9d3cdc3c9206e", Seq(
        (537, 1009, 0x3f9970e4f80cb872L), (421, 785, 0x3f9876d370b5bbdaL), (72, 879, 0x3f98561d043649f2L),
        (514, 678, 0x3f98561d043649f2L), (100, 999, 0x3f983060c183060cL), (295, 624, 0x3f977a5b33ec2250L),
        (335, 929, 0x3f977a5b33ec2250L), (56, 888, 0x3f96e6a536cc790cL), (198, 766, 0x3f96e6a536cc790cL),
        (272, 924, 0x3f96e6a536cc790cL), (314, 942, 0x3f96e6a536cc790cL), (31, 980, 0x3f96ad92f896061bL),
        (136, 822, 0x3f96ad92f896061bL), (150, 836, 0x3f96ad92f896061bL), (277, 724, 0x3f96ad92f896061bL),
        (443, 909, 0x3f96ad92f896061bL), (477, 760, 0x3f96ad92f896061bL), (490, 925, 0x3f96ad92f896061bL),
        (497, 680, 0x3f96ad92f896061bL), (528, 638, 0x3f96ad92f896061bL))),
      "PBS" -> Pinned(17003, "49caf24ef3ff402fcb2c8f4ee8f689faa8fc74e227a896e054244f0e9f1c8153", Seq(
        (403, 1007, 0x3ff3aaf004559ab0L), (289, 752, 0x3ff8b46b46b46b46L), (316, 644, 0x3ff14dcf0b7c5aadL),
        (474, 921, 0x3ff83fe0cad97a63L), (516, 991, 0x4004827027027027L), (158, 805, 0x3ff6b7ab7ab7ab7aL),
        (28, 910, 0x3ff9b91791791791L), (68, 927, 0x3ff3925125125124L), (301, 897, 0x4004659659659659L),
        (383, 757, 0x3ffc1d41d41d41d5L), (179, 611, 0x3ff971c71c71c71cL), (4, 795, 0x4002779be02468acL),
        (524, 620, 0x3ff6b68fc613a70cL), (455, 773, 0x40011f518562cf31L), (382, 938, 0x4003103227b4c470L),
        (24, 639, 0x3ffc444444444444L), (477, 760, 0x3ff463bd81a98ef6L), (288, 605, 0x3ff659c427e56710L),
        (253, 717, 0x4001c817ff2c2a9eL), (91, 957, 0x3ff6bd01feab8da0L))),
      "PPS" -> Pinned(17003, "ad7a95f097a8bd2e1ecb8d8ff43a712daecf9d4764243fb9d709379fbd5fe262", Seq(
        (314, 942, 0x4005efa4fa4fa4faL), (513, 807, 0x4004a8a28a28a28bL), (516, 991, 0x4004827027027027L),
        (301, 897, 0x4004659659659659L), (294, 878, 0x40031d11d11d11d0L), (382, 938, 0x4003103227b4c470L),
        (166, 828, 0x4002c5e45e45e45dL), (249, 931, 0x4002c4ac4ac4ac4bL), (4, 795, 0x4002779be02468acL),
        (272, 924, 0x40023c9d1f2747c9L), (253, 717, 0x4001c817ff2c2a9eL), (344, 819, 0x40017fc120a45369L),
        (497, 680, 0x40014ac7d346e6daL), (313, 576, 0x4001441041041040L), (455, 773, 0x40011f518562cf31L),
        (176, 763, 0x4000d2e52e52e52dL), (200, 710, 0x4000bacec95e5d03L), (162, 632, 0x40007600f9a9342dL),
        (111, 841, 0x400064dfc2593cdbL), (541, 986, 0x4000444444444444L))),
    ),
  )
}
