package repro.core

import java.util.concurrent.{Callable, ForkJoinTask}

/** Range parallelism on the common `ForkJoinPool`: cut `[0, n)` into
  * contiguous ranges of about equal work, and run one body per range.
  * Callers merge the ranges' results in range order, so what they compute
  * does not depend on the cut.
  */
private[repro] object ForkJoin {

  /** Runs `tasks` bodies on the common `ForkJoinPool`, body 0 on the calling
    * thread, and returns their results in order.
    */
  def all[T](tasks: Int)(body: Int => T): IndexedSeq[T] = {
    val forked = (1 until tasks).map { t =>
      ForkJoinTask.adapt(new Callable[T] { def call(): T = body(t) }).fork()
    }
    val first = if (tasks > 0) Vector(body(0)) else Vector.empty
    first ++ forked.map(_.join())
  }

  /** The bounds of contiguous ranges of `[0, n)` of about equal `work`:
    * one range per processor, but none with less than `minWork` units of
    * work, and at least one. Range q is `bounds(q) until bounds(q + 1)`.
    */
  def ranges(n: Int, minWork: Long)(work: Int => Long): Array[Int] = {
    val done = prefixSums(n, work)
    cut(done, math.max(1L, math.min(Runtime.getRuntime.availableProcessors.toLong, done(n) / minWork)).toInt)
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
