package repro.spark

import repro.core.Ev
import repro.core.engine.CoreEngine
import repro.core.tecs.MatchSink
import scala.collection.mutable.ArrayBuffer

/** The match rows of `events` (in stream order), each event run by the run
  * `runOf` gives it and each row named by that run's key; shared by
  * [[CoreBatch]] (the [[repro.core.engine.RunTable]] of a partition's scan)
  * and [[CoreStreaming]] (one key's run).
  *
  * Runs one event at a time, when the rows of the previous one are used up,
  * and formats each row's `data` straight from the enumerator's position
  * buffer with one reused `StringBuilder`. `onExhausted` runs once, when the
  * last row has been read.
  */
final class MatchRows(events: Iterator[Ev], runOf: Ev => CoreEngine, onExhausted: () => Unit = () => ())
    extends Iterator[MatchRow] with MatchSink {

  private val rows = ArrayBuffer.empty[MatchRow]
  private var read = 0
  private val sb = new java.lang.StringBuilder
  private var exhausted = false
  private var key = ""

  def apply(start: Long, end: Long, positions: Array[Long], from: Int): Unit = {
    sb.setLength(0)
    var i = from
    while (i < positions.length) {
      if (i > from) sb.append(',')
      sb.append(positions(i))
      i += 1
    }
    rows += MatchRow(key, start, end, sb.toString)
  }

  def hasNext: Boolean = {
    while (read == rows.length && events.hasNext) {
      rows.clear(); read = 0
      val ev = events.next()
      val run = runOf(ev)
      key = run.key
      run.onEvent(ev, this)
    }
    val more = read < rows.length
    if (!more && !exhausted) { exhausted = true; onExhausted() }
    more
  }

  def next(): MatchRow = {
    if (!hasNext) throw new NoSuchElementException("no more match rows")
    read += 1
    rows(read - 1)
  }
}
