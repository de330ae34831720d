package repro.core

/** A profile comparison `c_ij`, canonically ordered (`i < j`), carrying the
  * matching-likelihood weight the emitting method assigned to it (0 for the
  * unweighted naïve methods).
  */
final case class Comparison(i: Int, j: Int, weight: Double) {
  require(i < j, s"comparison must be canonical: got ($i, $j)")

  /** Canonical pair key, used for dedup sets and ground-truth lookups. */
  def pair: (Int, Int) = (i, j)
}

object Comparison {

  /** Canonicalize an unordered pair into a Comparison. */
  def of(a: Int, b: Int, weight: Double = 0.0): Comparison =
    if (a < b) Comparison(a, b, weight) else Comparison(b, a, weight)
}
