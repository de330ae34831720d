package repro.core

import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicIntegerArray}
import repro.SparkSpec

class ForkJoinSpec extends SparkSpec {

  private val P = Runtime.getRuntime.availableProcessors

  /** The range counts every property runs under. */
  private val taskCounts = Seq(0, 1, 2, P - 1, P, P + 1, 4 * P + 3, 257).filter(_ >= 0).distinct

  /** Busy work of a few microseconds that differs by range, so ranges end
    * out of order.
    */
  private def spin(q: Int): Long = {
    var h = q.toLong
    var s = 0
    while (s < 2000 * (1 + q % 7)) { h = h * 6364136223846793005L + 1442695040888963407L; s += 1 }
    h
  }

  test("ForkJoin.all returns the results in range order") {
    for (k <- taskCounts) {
      val results = ForkJoin.all(k) { q => spin(q); 3 * q }
      assert(results === (0 until k).map(3 * _), s"k=$k")
    }
  }

  test("ForkJoin.all runs every body once") {
    for (k <- taskCounts) {
      val runs = new AtomicIntegerArray(k)
      ForkJoin.all(k) { q => spin(q); runs.incrementAndGet(q) }
      assert((0 until k).map(runs.get) === Seq.fill(k)(1), s"k=$k")
    }
  }

  test("an exception in the first, a middle or the last range reaches the caller, and no range starts after") {
    val k = 4 * P + 3
    for (thrower <- Seq(0, k / 2, k - 1)) {
      val started = new AtomicInteger
      val e = intercept[IllegalStateException] {
        ForkJoin.all(k) { q =>
          started.incrementAndGet()
          Thread.sleep(1)
          if (q == thrower) throw new IllegalStateException(s"range $q")
          q
        }
      }
      assert(e.getMessage === s"range $thrower")
      val atReturn = started.get
      Thread.sleep(20)
      assert(started.get === atReturn, s"a range started after ForkJoin.all returned (thrower $thrower)")
    }
    assert(ForkJoin.all(k)(identity) === (0 until k), "the pool works after a failure")
  }

  test("a nested ForkJoin.all completes") {
    val k = P + 1
    val sums = ForkJoin.all(k) { q => ForkJoin.all(k) { r => spin(r); q * 100 + r }.sum }
    assert(sums === (0 until k).map(q => (0 until k).map(q * 100 + _).sum))
  }

  test("ForkJoin.all makes at most one scratch per thread, and no scratch serves two ranges at once") {
    for (k <- taskCounts) {
      val made = new AtomicInteger
      val overlaps = new AtomicInteger
      val results = ForkJoin.all(k, () => { made.incrementAndGet(); new AtomicBoolean }) { (busy, q) =>
        if (!busy.compareAndSet(false, true)) overlaps.incrementAndGet()
        spin(q)
        busy.set(false)
        q
      }
      assert(results === (0 until k), s"k=$k")
      assert(made.get <= math.min(k, P), s"k=$k: ${made.get} scratches")
      assert(overlaps.get === 0, s"k=$k")
    }
  }
}
