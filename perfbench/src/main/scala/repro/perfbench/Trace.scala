package repro.perfbench

import scala.collection.mutable

/** One timed call into the program: its name, its interval on the tracer's
  * clock and the span that was open when it started (-1 for a root).
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory spans and counts, recorded from the benchmark's own calls into
  * the program. A disabled tracer runs every body untouched and records
  * nothing, so the same code serves the untraced and the traced runs.
  */
final class Tracer(val enabled: Boolean, clock: () => Long = () => System.nanoTime()) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Map.empty[Int, (String, Int, Long)]
  private var stack: List[Int] = Nil
  private var nextId = 0
  val counts: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  /** Open a span under the innermost open one; returns its id (-1 if off). */
  def start(name: String): Int =
    if (!enabled) -1
    else {
      val id = nextId
      nextId += 1
      open(id) = (name, stack.headOption.getOrElse(-1), clock())
      stack = id :: stack
      id
    }

  /** Close span `id` and every span opened inside it that is still open. */
  def end(id: Int): Unit =
    if (enabled && open.contains(id)) {
      val t = clock()
      while (stack.nonEmpty && stack.head != id) closeTop(t)
      closeTop(t)
    }

  private def closeTop(t: Long): Unit = {
    val id = stack.head
    stack = stack.tail
    val (name, parent, t0) = open.remove(id).get
    done += Span(id, name, parent, t0, t)
  }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = start(name)
      try body
      finally end(id)
    }

  def count(name: String, value: Double): Unit = if (enabled) counts(name) = value

  def spans: Vector[Span] = done.toVector.sortBy(_.id)

  def children(s: Span): Vector[Span] = done.iterator.filter(_.parent == s.id).toVector

  /** A span's duration minus the time its direct children cover. */
  def selfNs(s: Span): Long = s.durNs - children(s).map(_.durNs).sum

  /** Spans named `name`, latest first. */
  def named(name: String): Vector[Span] = done.iterator.filter(_.name == name).toVector.reverse

  def toJson: String = {
    val ss = spans.map { s =>
      Json.obj(
        "id" -> Json.num(s.id), "name" -> Json.str(s.name), "parent" -> Json.num(s.parent),
        "start_ns" -> Json.num(s.startNs), "end_ns" -> Json.num(s.endNs),
        "self_ns" -> Json.num(selfNs(s)))
    }
    Json.obj(
      "spans" -> Json.arr(ss),
      "counts" -> Json.obj(counts.toSeq.map { case (k, v) => k -> Json.num(v) }: _*))
  }
}

/** Just enough JSON writing for the benchmark's outputs. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\r' => sb ++= "\\r"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
    sb.toString
  }

  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
  def num(l: Long): String = l.toString
  def bool(b: Boolean): String = b.toString
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
  def obj(kvs: (String, String)*): String =
    kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
