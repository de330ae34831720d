package repro.core

/** Relative Co-occurrence Frequency (the paper's RCF, Sec. 5.1), the weight
  * LS-PSN and GS-PSN give a Neighbor List pair:
  * `freq / (|PI[i]| + |PI[j]| - freq)` — a Jaccard-style normalization of the
  * co-occurrence count by the positions of both profiles, using only the
  * Position Index, so schema- and domain-agnostic by construction.
  *
  * For a single window this is exactly the paper's formula. When frequencies
  * are accumulated over a range of `W` windows (GS-PSN), each position can
  * co-occur up to once per window, so the opportunity mass scales with `W`:
  * we normalize by `W·(|PI[i]| + |PI[j]|) − freq`, which degenerates to the
  * paper's formula at `W = 1` and keeps the weight positive and monotone in
  * `freq` for any `W` (the verbatim formula turns negative once
  * `freq > |PI[i]| + |PI[j]|`, destroying the ranking).
  */
object Rcf {

  /** @param freq    number of (position, window) co-occurrences of the pair
    * @param lenI    number of Neighbor List placements of profile i (|PI[i]|)
    * @param lenJ    number of Neighbor List placements of profile j (|PI[j]|)
    * @param windows number of window sizes the frequency was accumulated
    *                over (1 for LS-PSN; w_max for GS-PSN)
    */
  def weight(freq: Int, lenI: Int, lenJ: Int, windows: Int): Double = {
    val denom = windows.toLong * (lenI + lenJ) - freq
    if (denom <= 0) freq.toDouble else freq.toDouble / denom
  }
}
