package repro.baselines

import repro.core.{ComplexEvent, Ev}
import repro.core.cea.{Cea, CTrans, Compiler}
import repro.core.ceql.{CeqlQuery, Consume, Window}
import repro.core.engine.{Engines, PartitionedEngine, StreamEngine}
import repro.core.pred.AtomRegistry
import scala.collection.mutable

/** Baseline CER engines (§6 comparison systems), reproduced by their
  * *partial-match maintenance strategy* over the same compiled CEA:
  *
  *  - [[SaseEngine]]    — SASE: one explicit run object per partial match
  *    (skip-till-any-match NFA simulation); matches are materialized, so
  *    enumeration is direct, but the run set grows super-linearly (Example 1).
  *  - [[EsperEngine]]   — Esper: tree/delta-network style, partial matches
  *    materialized in per-state (≈ per-prefix) buckets; transition predicates
  *    are evaluated once per bucket instead of once per run.
  *  - [[FlinkCepEngine]] — FlinkCEP: shared-buffer NFA; partial matches share
  *    event suffixes via predecessor pointers, expired runs are pruned only on
  *    watermark-style boundaries, and (as in the paper's setup, footnote on
  *    Fig 7) only the first match per input event is emitted.
  *
  * All evaluate the same nondeterministic CEA the CORE engine determinizes,
  * so outputs agree (tests compare against CoreEngine and BruteForce).
  */
private[baselines] object Runs {
  /** A partial match: current NFA state is implicit in the bucket/owner;
    * `marks` is a shared-tail cons list, newest first.
    */
  final case class Run(state: Int, startIdx: Long, startVal: Long, marks: List[Long]) {
    /** The run after taking `tr` at position `j`; a marking transition adds `j`. */
    def step(tr: CTrans, j: Long): Run =
      if (tr.mark) copy(state = tr.to, marks = j :: marks) else copy(state = tr.to)
  }
}

private[baselines] abstract class NfaBase(
    val cea: Cea, val reg: AtomRegistry, window: Window,
    consume: Consume, limit: Int,
) extends StreamEngine {
  import Runs.Run
  protected var runs = mutable.ArrayBuffer.empty[Run]
  protected var enumNs = 0L
  def enumNanos: Long = enumNs
  def numRuns: Int = runs.size

  /** Whether to prune expired runs on this event (subclasses differ). */
  protected def shouldPrune(j: Long): Boolean

  def onEvent(ev: Ev): List[ComplexEvent] = {
    val j = ev.idx
    val now = window.clock(ev)
    val tau = now - window.epsilon
    val bits = reg.bits(ev)
    val next = mutable.ArrayBuffer.empty[Run]
    // A new run may start at any position.
    next ++= advance(Run(cea.q0, j, now, Nil), bits, j)
    val prune = shouldPrune(j)
    var i = 0
    while (i < runs.length) {
      val r = runs(i)
      if (!prune || r.startVal >= tau) next ++= advance(r, bits, j)
      i += 1
    }
    runs = next
    emit(j, tau)
  }

  private def advance(r: Run, bits: scala.collection.immutable.BitSet, j: Long): Iterator[Run] = {
    val trs = cea.bySource(r.state)
    trs.iterator.filter(_.pred.eval(bits)).map(r.step(_, j))
  }

  private def emit(j: Long, tau: Long): List[ComplexEvent] = {
    val t0 = System.nanoTime()
    var out = List.empty[ComplexEvent]
    var anyFinal = false
    var i = 0
    while (i < runs.length && (limit < 0 || out.size < limit || !anyFinal)) {
      val r = runs(i)
      if (cea.finals.contains(r.state) && r.startVal >= tau) {
        anyFinal = true
        if (limit < 0 || out.size < limit)
          out = ComplexEvent.of(r.startIdx, j, r.marks) :: out
      }
      i += 1
    }
    enumNs += System.nanoTime() - t0
    if (consume == Consume.Any && anyFinal) runs.clear()
    out.reverse
  }
}

/** SASE-like: explicit run list, pruned every event. */
final class SaseEngine(cea: Cea, reg: AtomRegistry, window: Window,
                       consume: Consume, limit: Int)
    extends NfaBase(cea, reg, window, consume, limit) {
  protected def shouldPrune(j: Long): Boolean = true
}

/** Esper-like: partial matches bucketed per state; a transition's predicate is
  * evaluated once per bucket and applied to every match in it (delta-network
  * style propagation).
  */
final class EsperEngine(cea: Cea, reg: AtomRegistry, window: Window,
                        consume: Consume, limit: Int)
    extends StreamEngine {
  import Runs.Run
  private var buckets = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Run]]
  private var enumNs = 0L
  def enumNanos: Long = enumNs
  def numRuns: Int = buckets.valuesIterator.map(_.size).sum

  def onEvent(ev: Ev): List[ComplexEvent] = {
    val j = ev.idx
    val now = window.clock(ev)
    val tau = now - window.epsilon
    val bits = reg.bits(ev)
    val next = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Run]]
    def put(state: Int, rs: Iterator[Run]): Unit = {
      val b = next.getOrElseUpdate(state, mutable.ArrayBuffer.empty[Run])
      b ++= rs
    }
    // fresh run at this position
    val fresh = Run(cea.q0, j, now, Nil)
    for (tr <- cea.bySource(cea.q0) if tr.pred.eval(bits))
      put(tr.to, Iterator.single(fresh.step(tr, j)))
    for ((state, b) <- buckets; tr <- cea.bySource(state) if tr.pred.eval(bits)) {
      val survivors = b.iterator.filter(_.startVal >= tau)
      put(tr.to, survivors.map(_.step(tr, j)))
    }
    buckets = next
    // emit from final-state buckets
    val t0 = System.nanoTime()
    var out = List.empty[ComplexEvent]
    var anyFinal = false
    for (f <- cea.finals; b <- buckets.get(f); r <- b) {
      anyFinal = true
      if (limit < 0 || out.size < limit) out = ComplexEvent.of(r.startIdx, j, r.marks) :: out
    }
    enumNs += System.nanoTime() - t0
    if (consume == Consume.Any && anyFinal) buckets = mutable.LinkedHashMap.empty
    out.reverse
  }
}

/** FlinkCEP-like: shared-buffer NFA — runs share suffixes through predecessor
  * pointers (the cons lists) and expired runs are only dropped on
  * watermark-style boundaries (every 64 events), so the live run set is larger
  * than SASE's between boundaries.
  */
final class FlinkCepEngine(cea: Cea, reg: AtomRegistry, window: Window,
                           consume: Consume, limit: Int)
    extends NfaBase(cea, reg, window, consume, limit) {
  private var sinceLastPrune = 0
  protected def shouldPrune(j: Long): Boolean = {
    sinceLastPrune += 1
    if (sinceLastPrune >= FlinkCepEngine.PruneEvery) { sinceLastPrune = 0; true } else false
  }
}

object FlinkCepEngine {
  private final val PruneEvery = 64
}

/** Factories mirroring [[repro.core.engine.Engines.core]]. */
object Baselines {
  private def build(q: CeqlQuery, limit: Int,
                    mk: (Cea, AtomRegistry) => StreamEngine): StreamEngine = {
    val (cea, reg) = Compiler.compile(q.pattern)
    if (q.partitionBy.nonEmpty) new PartitionedEngine(_ => mk(cea, reg), Engines.partKeyFn(q.partitionBy))
    else mk(cea, reg)
  }
  def sase(q: CeqlQuery, limit: Int = -1): StreamEngine =
    build(q, limit, new SaseEngine(_, _, q.within, q.consume, limit))
  def esper(q: CeqlQuery, limit: Int = -1): StreamEngine =
    build(q, limit, new EsperEngine(_, _, q.within, q.consume, limit))
  /** The paper only prints the first match for FlinkCEP (Fig 7 footnote). */
  def flink(q: CeqlQuery, limit: Int = 1): StreamEngine =
    build(q, limit, new FlinkCepEngine(_, _, q.within, q.consume, limit))
}
