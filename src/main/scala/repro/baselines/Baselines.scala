package repro.baselines

import repro.core.Ev
import repro.core.cea.{Cea, CTrans, Compiler}
import repro.core.ceql.{CeqlQuery, Consume, Window}
import repro.core.engine.{Engines, KeyedRun, RunClock, StreamEngine}
import repro.core.pred.AtomRegistry
import repro.core.tecs.MatchSink
import scala.collection.mutable

/** Baseline CER engines (§6 comparison systems), reproduced by their
  * *partial-match maintenance strategy* over the same compiled CEA. They share
  * this event loop and differ only in how they store partial matches:
  *
  *  - [[SaseEngine]]    — SASE: one explicit run object per partial match
  *    (skip-till-any-match NFA simulation); matches are materialized, so
  *    enumeration is direct, but the run set grows super-linearly (Example 1).
  *  - [[EsperEngine]]   — Esper: tree/delta-network style, partial matches
  *    materialized in per-state (≈ per-prefix) buckets; transition predicates
  *    are evaluated once per bucket instead of once per run.
  *  - [[FlinkCepEngine]] — FlinkCEP: SASE's run list, with expired runs
  *    dropped only on watermark-style boundaries, and (as in the paper's setup,
  *    footnote on Fig 7) only the first match per input event emitted.
  *
  * Per event the loop advances the stored runs, emits up to `limit` complete
  * matches that start in the window and, under `CONSUME BY ANY`, forgets every
  * partial match once a final state is reached (§6 setup). Its input contract
  * is `CoreEngine`'s, kept by the [[RunClock]] of the run's PARTITION BY key
  * `key`: an event that breaks it is rejected before any state changes (a
  * baseline that pruned by a later window start would miss matches).
  *
  * All evaluate the same nondeterministic CEA the CORE engine determinizes,
  * so they recognize the same complex events (tests compare against
  * CoreEngine and BruteForce). They emit one complex event per accepting run,
  * though: on an ambiguous formula (`C OR C`) a complex event can repeat, and
  * under a per-event limit the count can then differ from CORE's. No T1–T5
  * query is ambiguous, and de-duplicating would add work to every output.
  */
private[baselines] abstract class NfaBase(
    val cea: Cea, val reg: AtomRegistry, window: Window,
    consume: Consume, limit: Int, key: String,
) extends KeyedRun {
  private var enumNs = 0L
  def enumNanos: Long = enumNs
  val clock = new RunClock(key)
  /** The mask of the current event. */
  @transient private lazy val mask = new Array[Long](reg.words)

  /** Steps the stored runs and `fresh`, the run starting at `j`, over the
    * event at `j`; runs that started before `tau` may be dropped. */
  protected def advance(fresh: Run, mask: Array[Long], j: Long, tau: Long): Unit
  /** The buffers of stored runs that may be complete, in emission order. */
  protected def candidates: Iterator[mutable.ArrayBuffer[Run]]
  protected def clear(): Unit

  final def onEvent(ev: Ev, sink: MatchSink): Int = {
    val j = ev.idx
    val now = window.clock(ev)
    val tau = now - window.epsilon
    clock.advance(j, tau)
    advance(Run(cea.q0, j, now, Nil), reg.mask(ev, mask), j, tau)
    val t0 = System.nanoTime()
    var n = 0
    var anyFinal = false
    val bufs = candidates
    while (bufs.hasNext && (limit < 0 || n < limit || !anyFinal)) {
      val b = bufs.next()
      var i = 0
      while (i < b.length && (limit < 0 || n < limit || !anyFinal)) {
        val r = b(i)
        if (cea.finals.contains(r.state) && r.startVal >= tau) {
          anyFinal = true
          if (limit < 0 || n < limit) { emit(r, j, sink); n += 1 }
        }
        i += 1
      }
    }
    enumNs += System.nanoTime() - t0
    if (consume == Consume.Any && anyFinal) clear()
    n
  }

  /** Reused by every match: a run's marks (newest first) are written right to left. */
  @transient private var positions: Array[Long] = null
  private def emit(r: Run, j: Long, sink: MatchSink): Unit = {
    if (positions == null || positions.length < r.marks.length) positions = new Array[Long](2 * r.marks.length)
    var i = positions.length; var m = r.marks
    while (m.nonEmpty) { i -= 1; positions(i) = m.head; m = m.tail }
    sink(r.startIdx, j, positions, i)
  }
}

/** A partial match; `marks` is a shared-tail cons list, newest first. */
private[baselines] final case class Run(state: Int, startIdx: Long, startVal: Long, marks: List[Long]) {
  /** The run after taking `tr` at position `j`; a marking transition adds `j`. */
  def step(tr: CTrans, j: Long): Run =
    if (tr.mark) copy(state = tr.to, marks = j :: marks) else copy(state = tr.to)
}

/** SASE's and FlinkCEP's store: a run list, pruned of expired runs every `pruneEvery` events. */
private[baselines] abstract class RunList(cea: Cea, reg: AtomRegistry, window: Window,
                                          consume: Consume, limit: Int, key: String, pruneEvery: Int)
    extends NfaBase(cea, reg, window, consume, limit, key) {
  private var runs = mutable.ArrayBuffer.empty[Run]
  private var sinceLastPrune = 0
  def numRuns: Int = runs.size

  protected def advance(fresh: Run, mask: Array[Long], j: Long, tau: Long): Unit = {
    val next = mutable.ArrayBuffer.empty[Run]
    // A new run may start at any position.
    next ++= step(fresh, mask, j)
    sinceLastPrune += 1
    val prune = sinceLastPrune >= pruneEvery
    if (prune) sinceLastPrune = 0
    var i = 0
    while (i < runs.length) {
      val r = runs(i)
      if (!prune || r.startVal >= tau) next ++= step(r, mask, j)
      i += 1
    }
    runs = next
  }

  private def step(r: Run, mask: Array[Long], j: Long): Iterator[Run] =
    cea.bySource(r.state).iterator.filter(_.pred.eval(mask)).map(r.step(_, j))

  protected def candidates: Iterator[mutable.ArrayBuffer[Run]] = Iterator.single(runs)
  protected def clear(): Unit = runs.clear()
}

/** SASE-like: explicit run list, pruned every event. */
final class SaseEngine(cea: Cea, reg: AtomRegistry, window: Window,
                       consume: Consume, limit: Int, key: String = "")
    extends RunList(cea, reg, window, consume, limit, key, pruneEvery = 1)

/** Esper-like: partial matches bucketed per state; a transition's predicate is
  * evaluated once per bucket and applied to every match in it (delta-network
  * style propagation).
  */
final class EsperEngine(cea: Cea, reg: AtomRegistry, window: Window,
                        consume: Consume, limit: Int, key: String = "")
    extends NfaBase(cea, reg, window, consume, limit, key) {
  private var buckets = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Run]]
  def numRuns: Int = buckets.valuesIterator.map(_.size).sum

  protected def advance(fresh: Run, mask: Array[Long], j: Long, tau: Long): Unit = {
    val next = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Run]]
    def put(state: Int, rs: Iterator[Run]): Unit =
      next.getOrElseUpdate(state, mutable.ArrayBuffer.empty[Run]) ++= rs
    for (tr <- cea.bySource(cea.q0) if tr.pred.eval(mask))
      put(tr.to, Iterator.single(fresh.step(tr, j)))
    for ((state, b) <- buckets; tr <- cea.bySource(state) if tr.pred.eval(mask)) {
      val survivors = b.iterator.filter(_.startVal >= tau)
      put(tr.to, survivors.map(_.step(tr, j)))
    }
    buckets = next
  }

  protected def candidates: Iterator[mutable.ArrayBuffer[Run]] = cea.finals.iterator.flatMap(buckets.get)
  protected def clear(): Unit = buckets = mutable.LinkedHashMap.empty
}

/** FlinkCEP-like: SASE's run list with expired runs dropped only every 64
  * events (watermark-style), so the live run set is larger than SASE's
  * between boundaries. */
final class FlinkCepEngine(cea: Cea, reg: AtomRegistry, window: Window,
                           consume: Consume, limit: Int, key: String = "")
    extends RunList(cea, reg, window, consume, limit, key, pruneEvery = 64)

/** Factories mirroring [[repro.core.engine.Engines.core]]. */
object Baselines {
  /** One run per PARTITION BY key, each given its key, on a CEA compiled once. */
  private def build(q: CeqlQuery, mk: (Cea, AtomRegistry, String) => NfaBase): StreamEngine = {
    val (cea, reg) = Compiler.compile(q.pattern)
    Engines.perKey(q, mk(cea, reg, _))
  }
  def sase(q: CeqlQuery, limit: Int = -1): StreamEngine =
    build(q, new SaseEngine(_, _, q.within, q.consume, limit, _))
  def esper(q: CeqlQuery, limit: Int = -1): StreamEngine =
    build(q, new EsperEngine(_, _, q.within, q.consume, limit, _))
  /** The paper only prints the first match for FlinkCEP (Fig 7 footnote). */
  def flink(q: CeqlQuery, limit: Int = 1): StreamEngine =
    build(q, new FlinkCepEngine(_, _, q.within, q.consume, limit, _))
}
