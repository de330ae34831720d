package repro.core

import java.util.Locale
import repro.SparkSpec

class TokenizerSpec extends SparkSpec {

  test("tokens lowercases input") {
    assert(Tokenizer.tokens("Ellen SMITH") === Seq("ellen", "smith"))
  }

  test("tokens lowercase the same under any default locale") {
    val default = Locale.getDefault
    Locale.setDefault(Locale.forLanguageTag("tr"))
    try assert(Tokenizer.tokens("TITLE INFO") === Seq("title", "info"))
    finally Locale.setDefault(default)
  }

  test("tokens splits on any non-alphanumeric run") {
    assert(Tokenizer.tokens("carl-brown_baker, white!") === Seq("carl", "brown", "baker", "white"))
  }

  test("tokens keeps digits") {
    assert(Tokenizer.tokens("212-555-0198") === Seq("212", "555", "0198"))
  }

  test("tokens of empty string is empty") {
    assert(Tokenizer.tokens("") === Seq.empty)
  }

  test("tokens of pure punctuation is empty") {
    assert(Tokenizer.tokens("--- !!! ...") === Seq.empty)
  }

  test("tokens keeps mixed alphanumerics as one token") {
    assert(Tokenizer.tokens("m0abc123") === Seq("m0abc123"))
  }

  test("URI values tokenize into their components") {
    assert(Tokenizer.tokens("http://rdf.freebase.com/ns/base.jazz") ===
      Seq("http", "rdf", "freebase", "com", "ns", "base", "jazz"))
  }

  test("profileKeys deduplicates tokens across attributes") {
    val p = Profile(0, 0, Vector("a" -> "white house", "b" -> "white chapel"))
    assert(Reference.profileKeys(p) === Vector("white", "house", "chapel"))
  }

  test("profileKeys ignores attribute names") {
    val p = Profile(0, 0, Vector("surname" -> "smith"))
    assert(Reference.profileKeys(p) === Vector("smith"))
  }

  test("profileKeys preserves first-appearance order") {
    val p = Profile(0, 0, Vector("a" -> "zeta alpha", "b" -> "beta"))
    assert(Reference.profileKeys(p) === Vector("zeta", "alpha", "beta"))
  }

  test("profileKeys of a profile with empty values is empty") {
    val p = Profile(0, 0, Vector("a" -> "", "b" -> "  "))
    assert(Reference.profileKeys(p) === Vector.empty)
  }

  test("placements covers every (token, profile) pair of the fixture") {
    val pls = Tokenizer.placements(PaperExample.pc)
    assert(pls.contains(("ellen", 0)))
    assert(pls.contains(("ellen", 1)))
    assert(pls.contains(("white", 5)))
    assert(pls.count(_._1 == "white") === 6)
  }

  test("placements count equals sum of per-profile distinct tokens") {
    val pls = Tokenizer.placements(PaperExample.pc)
    val expected = PaperExample.pc.profiles.map(Reference.profileKeys(_).size).sum
    assert(pls.size === expected)
  }
}
