package repro.core.engine

import repro.core.Ev
import repro.core.ceql.CeqlQuery
import repro.core.tecs.MatchSink

/** The input-order contract of the run of PARTITION BY key `key`, kept by
  * [[CoreEngine]] and the baselines: [[advance]] rejects an event whose `idx`
  * is not above the last one's or whose window start (clock − ε) is below the
  * last one's, naming the key and both positions or both starts.
  */
final class RunClock(key: String) extends Serializable {
  private var idx = RunState.NoClock
  private var from = Long.MinValue

  /** `idx` of the last event, [[RunState.NoClock]] before the first. */
  def lastIdx: Long = idx
  /** Window start of the last event, `Long.MinValue` before the first and after [[restore]]. */
  def start: Long = from

  def advance(j: Long, tau: Long): Unit = {
    if (j <= idx && idx != RunState.NoClock) throw new IllegalArgumentException(
      s"out-of-order event for key '$key': idx $j is not after the last idx $idx")
    if (tau < from) throw new IllegalArgumentException(
      s"out-of-order event for key '$key': idx $j moves the window start back from $from to $tau")
    idx = j; from = tau
  }

  /** The clock of a decoded run state, which keeps no window start: the start check lapses for the next event. */
  def restore(lastIdx: Long): Unit = { idx = lastIdx; from = Long.MinValue }
}

/** The run of one PARTITION BY substream: an engine and the clock of its key. */
trait KeyedRun extends StreamEngine {
  def clock: RunClock
}

/** The runs of query `q`, one per PARTITION BY key (§5.4), held under the
  * attributes' values ([[Engines.runKeyFn]]) in last-use order; `mk` starts a
  * key's run, named by the key rendered once ([[Engines.partKeyFn]]).
  *
  * As a [[StreamEngine]] (the single engine and the baselines) the table drops
  * no run, as its clock may fall from key to key. As `Ev => R` it serves a scan
  * whose clock never falls (`CoreBatch`): before each event it drops the least
  * recently used runs while their last window clock is below the event's
  * window start. Every state of such a run has expired, so a fresh run behaves
  * the same, except that the key's order check lapses for its next event, as
  * after [[CoreEngine.restore]]. The table then holds only the keys of the last ε.
  */
final class RunTable[R <: KeyedRun](q: CeqlQuery, mk: String => R) extends StreamEngine with (Ev => R) {
  private val runKey = Engines.runKeyFn(q.partitionBy)
  private val partKey = Engines.partKeyFn(q.partitionBy)
  private val window = q.within
  private val runs = new java.util.LinkedHashMap[AnyRef, R](16, 0.75f, true)

  private def runOf(ev: Ev): R = {
    val k = runKey(ev)
    var run = runs.get(k)
    if (run == null) { run = mk(partKey(ev)); runs.put(k, run) }
    run
  }

  def onEvent(ev: Ev, sink: MatchSink): Int = runOf(ev).onEvent(ev, sink)

  def apply(ev: Ev): R = {
    val start = window.clock(ev) - window.epsilon
    val oldest = runs.values().iterator()
    while (oldest.hasNext && oldest.next().clock.start + window.epsilon < start) oldest.remove()
    runOf(ev)
  }

  def enumNanos: Long = { var n = 0L; runs.values().forEach(r => n += r.enumNanos); n }
  /** Test hook: the number of runs held. */
  def numRuns: Int = runs.size()
}
