package repro.core

import java.util.concurrent.ForkJoinTask
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import scala.collection.immutable.ArraySeq

/** Range parallelism on the common `ForkJoinPool`: cut `[0, n)` into
  * contiguous ranges of about equal work, and run one body per range.
  * Callers merge the ranges' results in range order, so what they compute
  * does not depend on the cut.
  */
private[repro] object ForkJoin {

  /** Ranges cut per processor, so that a thread that starts late or draws
    * a slow range leaves the rest to the others.
    */
  private val RangesPerProcessor = 2

  private def processors: Int = Runtime.getRuntime.availableProcessors

  /** Runs the bodies of ranges `0 until tasks` and returns their results in
    * range order; see the overload with scratch.
    */
  def all[T](tasks: Int)(body: Int => T): IndexedSeq[T] = all(tasks, () => ())((_, q) => body(q))

  /** Runs `body(scratch, q)` for every range q of `0 until tasks` and
    * returns the results in range order.
    *
    * The ranges are claimed from one shared counter: the calling thread
    * claims from the start, and up to min(`tasks`, P) − 1 helpers forked on
    * the common pool claim too, so no range waits behind another on a
    * thread while a second thread is free. A thread makes its `scratch` once,
    * when it claims its first range, and passes it to every range it runs;
    * a body must leave the scratch as it needs it for the next range.
    *
    * When the ranges run out, a helper that has not started is unforked, and
    * every other one is joined: no body runs after `all` returns. The first
    * exception of any body stops further claims and is rethrown here once
    * the running bodies are done.
    */
  def all[S, T](tasks: Int, scratch: () => S)(body: (S, Int) => T): IndexedSeq[T] = {
    val results = new Array[Any](tasks)
    val next = new AtomicInteger
    val failure = new AtomicReference[Throwable]
    val claim: Runnable = () => {
      var q = next.getAndIncrement()
      if (q < tasks) {
        try {
          val s = scratch()
          while (q < tasks && failure.get == null) {
            results(q) = body(s, q)
            q = next.getAndIncrement()
          }
        } catch { case e: Throwable => failure.compareAndSet(null, e) }
      }
    }
    val helpers = Array.fill[ForkJoinTask[_]](math.min(tasks, processors) - 1)(ForkJoinTask.adapt(claim).fork())
    claim.run()
    var h = helpers.length - 1
    while (h >= 0) {
      if (!helpers(h).tryUnfork()) helpers(h).join()
      h -= 1
    }
    if (failure.get != null) throw failure.get
    ArraySeq.unsafeWrapArray(results).asInstanceOf[IndexedSeq[T]]
  }

  /** The bounds of contiguous ranges of `[0, n)` of about equal `work`:
    * `RangesPerProcessor` ranges per processor, but none with less than
    * `minWork` units of work, and at least one. Range q is
    * `bounds(q) until bounds(q + 1)`.
    */
  def ranges(n: Int, minWork: Long)(work: Int => Long): Array[Int] = {
    val done = prefixSums(n, work)
    val count = math.min(RangesPerProcessor.toLong * processors, done(n) / minWork)
    cut(done, math.max(1L, count).toInt)
  }

  /** The bounds of `count` contiguous ranges of `[0, n)` of about equal
    * `work`; ranges are empty where `count` exceeds the elements.
    */
  def cut(n: Int, count: Int)(work: Int => Long): Array[Int] = cut(prefixSums(n, work), count)

  /** `done(x)`: the work of the elements before x. */
  private def prefixSums(n: Int, work: Int => Long): Array[Long] = {
    val done = new Array[Long](n + 1)
    var x = 0
    while (x < n) { done(x + 1) = done(x) + work(x); x += 1 }
    done
  }

  private def cut(done: Array[Long], count: Int): Array[Int] = {
    require(count >= 1, s"at least one range: got $count")
    val n = done.length - 1
    val bounds = new Array[Int](count + 1)
    var x = 0
    for (q <- 1 until count) {
      while (x < n && done(x) < done(n) * q / count) x += 1
      bounds(q) = x
    }
    bounds(count) = n
    bounds
  }
}
