package repro.data

import repro.eval.ErDataset

/** Registry of the 7 evaluation datasets (Table 2): the analogs the jobs and
  * the benchmark suites that reproduce the paper's tables run on, at a
  * scale factor (1.0 gives the default sizes).
  */
object Datasets {

  /** The four structured Dirty ER datasets — fixed paper-size shapes except
    * cddb, which is scalable.
    */
  def structured(cddbScale: Double = 1.0): Seq[ErDataset] = Seq(
    StructuredData.census(),
    StructuredData.restaurant(),
    StructuredData.cora(),
    StructuredData.cddb(cddbScale))

  /** The three heterogeneous Clean-clean ER datasets at a given SF. */
  def heterogeneous(scale: Double = 1.0): Seq[ErDataset] = Seq(
    HeterogeneousData.movies(0.1 * scale),
    HeterogeneousData.dbpedia(scale),
    HeterogeneousData.freebase(scale))
}
