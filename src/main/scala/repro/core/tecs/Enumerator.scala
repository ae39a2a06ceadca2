package repro.core.tecs

import repro.core.ComplexEvent
import scala.collection.mutable.ListBuffer

/** Receives the complex events of an enumeration, one call per match.
  *
  * The match is `([start, end], data)` with `data = positions(from until
  * positions.length)`, ascending. `positions` is the enumerator's reusable
  * buffer: it is valid only during the call and must not be kept.
  */
trait MatchSink {
  def apply(start: Long, end: Long, positions: Array[Long], from: Int): Unit
}

/** Output-linear-delay enumeration of `[[n]]^ε(j)` (Algorithm 2, Theorem 2).
  *
  * A cursor with reusable buffers, grown on demand and kept across calls: an
  * explicit stack of (node, depth) pairs and a position buffer written right
  * to left, so a path's positions are ascending from the write index to the
  * end of the buffer and a branch point needs only the depth to resume. The
  * traversal visits `left` before `right` and only pushes `right` when
  * `max(right) >= τ` — the time-ordering pruning of §5.1. A cursor is not
  * thread-safe; one belongs to one engine.
  */
final class Enumerator {
  private var positions = new Array[Long](Enumerator.InitialSize)
  private var nodes = new Array[Node](Enumerator.InitialSize)
  private var depths = new Array[Int](Enumerator.InitialSize)

  /** Passes up to `limit` complex events ending at position `j` whose start
    * value is `>= tau` (i.e. within the ε-window) to `sink`, and returns
    * their number. `limit < 0` means no limit; the walk stops at the limit.
    * `visits`, when not null, is incremented once per node visit — used to
    * check output-linear delay.
    */
  def run(n: Node, j: Long, tau: Long, limit: Int, sink: MatchSink,
          visits: Enumerator.Counter = null): Int = {
    if (n.max < tau) return 0
    var out = 0
    nodes(0) = n; depths(0) = 0
    var top = 1
    while (top > 0 && (limit < 0 || out < limit)) {
      top -= 1
      var cur = nodes(top)
      var depth = depths(top)
      nodes(top) = null
      var done = false
      while (!done) {
        if (visits != null) visits.n += 1
        cur match {
          case b: Bottom =>
            // data = positions of output nodes along the path (the bottom
            // label is the start only, cf. Fig 4 / Example 3)
            sink(b.pos, j, positions, positions.length - depth)
            out += 1
            done = true
          case o: Output =>
            if (depth == positions.length) growPositions()
            positions(positions.length - 1 - depth) = o.pos
            depth += 1
            cur = o.next
          case u: Union =>
            if (u.right.max >= tau) {
              if (top == nodes.length) growStack()
              nodes(top) = u.right; depths(top) = depth; top += 1
            }
            cur = u.left
        }
      }
    }
    while (top > 0) { top -= 1; nodes(top) = null } // drop references into the tECS
    out
  }

  /** Doubles the position buffer, keeping the written positions at its end. */
  private def growPositions(): Unit = {
    val bigger = new Array[Long](positions.length * 2)
    System.arraycopy(positions, 0, bigger, positions.length, positions.length)
    positions = bigger
  }

  private def growStack(): Unit = {
    nodes = java.util.Arrays.copyOf(nodes, nodes.length * 2)
    depths = java.util.Arrays.copyOf(depths, depths.length * 2)
  }
}

object Enumerator {
  /** Initial length of the position buffer and of the stack. */
  val InitialSize = 16

  /** The complex events [[Enumerator.run]] passes to its sink, as a list. */
  def enumerate(n: Node, j: Long, tau: Long, limit: Int = -1,
                visitCounter: Option[Counter] = None): List[ComplexEvent] = {
    val sink = new ListSink
    new Enumerator().run(n, j, tau, limit, sink, visitCounter.orNull)
    sink.result()
  }

  final class Counter { var n: Long = 0L }
}

/** A sink that collects matches as [[ComplexEvent]]s, in order.
  *
  * Consecutive matches share the list cells of their common later positions,
  * as a cons-list enumeration does: a match costs one cell per position not
  * shared with the match before it.
  */
final class ListSink extends MatchSink {
  private val out = ListBuffer.empty[ComplexEvent]
  /** `tails(d)`: the last `d + 1` positions of the previous match, as a list. */
  private var tails = new Array[List[Long]](Enumerator.InitialSize)
  private var prevLen = 0

  def apply(start: Long, end: Long, positions: Array[Long], from: Int): Unit = {
    val last = positions.length - 1
    val len = positions.length - from
    if (len > tails.length) tails = java.util.Arrays.copyOf(tails, math.max(len, tails.length * 2))
    var d = 0
    while (d < len && d < prevLen && tails(d).head == positions(last - d)) d += 1
    var data: List[Long] = if (d == 0) Nil else tails(d - 1)
    while (d < len) {
      data = positions(last - d) :: data
      tails(d) = data
      d += 1
    }
    prevLen = len
    out += ComplexEvent(start, end, data)
  }

  /** The matches collected since the last call, in order; empties the sink. */
  def result(): List[ComplexEvent] = {
    if (out.isEmpty) Nil
    else { val r = out.toList; out.clear(); r }
  }
}
