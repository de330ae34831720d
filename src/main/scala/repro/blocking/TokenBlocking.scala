package repro.blocking

import repro.core.ProfileCollection

/** Token Blocking (step 1 of the paper's Token Blocking Workflow, Sec. 7):
  * one block per attribute value token that stems from at least two profiles
  * — a *redundancy-positive* schema-agnostic blocking method, the input of
  * both equality-based progressive methods.
  */
object TokenBlocking {

  /** Build the token block collection of `pc`.
    *
    * Blocks that cannot yield a single executable comparison are dropped:
    * fewer than two profiles for Dirty ER, or all profiles on one source for
    * Clean-clean ER. Blocks are returned in deterministic key order.
    */
  def build(pc: ProfileCollection): BlockCollection =
    TokenIndex(pc).blocks(Some(_))
}
