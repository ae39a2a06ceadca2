package repro.spark

import repro.core.Ev
import repro.core.engine.CoreEngine
import repro.core.tecs.MatchSink
import scala.collection.mutable.ArrayBuffer

/** The match rows of one key's run over `events` (in stream order), shared by
  * [[CoreBatch]] and [[CoreStreaming]].
  *
  * Runs one event at a time, when the rows of the previous one are used up,
  * and formats each row's `data` straight from the enumerator's position
  * buffer with one reused `StringBuilder`. `onExhausted` runs once, when the
  * last row has been read.
  */
final class MatchRows(key: String, engine: CoreEngine, events: Iterator[Ev],
                      onExhausted: () => Unit = () => ())
    extends Iterator[MatchRow] with MatchSink {

  private val rows = ArrayBuffer.empty[MatchRow]
  private var read = 0
  private val sb = new java.lang.StringBuilder
  private var exhausted = false

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
      engine.onEvent(events.next(), this)
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
