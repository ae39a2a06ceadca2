package repro.core.engine

import repro.core.{ComplexEvent, Ev}
import repro.core.cea.{Compiler, Determinizer}
import repro.core.ceql._
import repro.core.pred.Attr
import repro.core.tecs._
import scala.collection.mutable

/** Common interface of all engines (CORE + the three baselines): push one
  * event, get the complex events recognized at that position (up to the
  * configured per-event output limit).
  */
trait StreamEngine extends Serializable {
  def onEvent(ev: Ev): List[ComplexEvent]
  /** Cumulative nanoseconds spent enumerating outputs (for the Fig-7 split
    * into update vs enumeration throughput). */
  def enumNanos: Long
  def reset(): Unit
}

/** CORE's evaluation algorithm (Algorithm 1, §5.3) over an I/O-determinized
  * CEA, maintaining a tECS and an insertion-ordered table of active states.
  *
  * - `window` gives ε and whether start values are positions or timestamps.
  * - `strategy`: ALL is the paper's algorithm; NEXT/LAST retain a single run
  *   per active state (earliest-/latest-start); MAX adds a maximality filter
  *   at enumeration (see DESIGN.md §3).
  * - `consume = Any`: forget all partial matches when a match fires (§6 setup).
  * - `limit`: max complex events enumerated per input event (§6 uses 10);
  *   `limit = 0` measures pure update throughput; `limit < 0` = unlimited.
  * - `key`: the PARTITION BY key of the substream, named in errors.
  *
  * Input contract: each event's `idx` must be greater than the last one this
  * run saw, or `onEvent` throws without changing the state. Only `idx` is
  * checked, not `ts`.
  *
  * The run state — active-state table, tECS and window clock — is kept apart
  * from the plan (`det`): [[snapshot]] / [[restore]] move it through the
  * [[RunState]] codec, which Java serialization also uses for it.
  */
final class CoreEngine(
    val det: Determinizer,
    window: Window,
    strategy: Strategy = Strategy.All,
    consume: Consume = Consume.None,
    limit: Int = -1,
    key: String = "",
) extends StreamEngine {

  /** Active det-states → union-lists, in insertion order (ordered-keys(T)). */
  @transient private var t = new java.util.LinkedHashMap[Int, UnionList]()
  /** The window clock: `idx` of the last event, [[RunState.NoClock]] before the first. */
  @transient private var lastIdx = RunState.NoClock
  /** Window start of the last event: lower start values can match no later event. */
  @transient private var horizon = Long.MinValue
  private var enumNs = 0L
  /** Enumeration cursor, the sink that gathers MAX's candidates and the sink
    * behind the list-returning [[onEvent]]: built on first use, then reused. */
  @transient private lazy val cursor = new Enumerator
  @transient private lazy val maxSink = new ListSink
  @transient private lazy val listSink = new ListSink

  def enumNanos: Long = enumNs
  def activeStates: Int = t.size()
  def reset(): Unit = {
    t = new java.util.LinkedHashMap[Int, UnionList]()
    lastIdx = RunState.NoClock; horizon = Long.MinValue; enumNs = 0L
  }

  /** Test hook: the active union-lists in insertion order. */
  def unionListsForTest: Seq[UnionList] = {
    val b = Seq.newBuilder[UnionList]
    t.values().forEach(ul => b += ul)
    b.result()
  }

  /** Test hook: the NFA-state sets of the active det-states, in insertion order. */
  def activeStateSetsForTest: Seq[List[Int]] = {
    val b = Seq.newBuilder[List[Int]]
    t.keySet().forEach(p => b += det.stateSet(p).toList)
    b.result()
  }

  /** The run state, encoded by [[RunState]]: no part of the plan. */
  def snapshot(): Array[Byte] = RunState.encode(det, t, lastIdx, horizon)

  /** Replaces the run state with a decoded [[snapshot]], which may come from
    * an engine whose plan numbered its det-states differently.
    */
  def restore(state: Array[Byte]): Unit = {
    val (table, clock) = RunState.decode(det, state)
    t = table; lastIdx = clock; horizon = Long.MinValue
  }

  // Java serialization: the plan by default, the run state through the codec.
  private def writeObject(out: java.io.ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    val state = snapshot()
    out.writeInt(state.length); out.write(state)
  }

  private def readObject(in: java.io.ObjectInputStream): Unit = {
    in.defaultReadObject()
    val state = new Array[Byte](in.readInt())
    in.readFully(state)
    restore(state)
  }

  def onEvent(ev: Ev): List[ComplexEvent] = {
    onEvent(ev, listSink)
    listSink.result()
  }

  /** Processes `ev` and passes the complex events recognized at its position
    * to `sink`, in enumeration order; returns their number.
    */
  def onEvent(ev: Ev, sink: MatchSink): Int = {
    val j = ev.idx
    val now = if (window.countBased) ev.idx else ev.ts
    val tau = now - window.epsilon
    advance(j, tau)
    val v = det.bits(ev)
    val tNew = new java.util.LinkedHashMap[Int, UnionList]()

    // Lines 7–8: a run may start at the current position.
    execTrans(det.initial, UnionList.single(Tecs.newBottom(j, now)), v, j, tNew)

    // Lines 9–10: extend runs of states active at j-1, in insertion order
    // (which the appendix proves is decreasing max-start order).
    val it = t.entrySet().iterator()
    while (it.hasNext) {
      val e = it.next()
      val ul = e.getValue
      if (ul.maxStart >= tau) { // expired states can never produce a match again
        ul.pruneExpired(tau)
        execTrans(e.getKey, ul, v, j, tNew)
      }
    }
    t = tNew

    output(j, tau, sink)
  }

  /** Moves the window clock to position `j`, window start `tau`; rejects `j`
    * if it is not after the last position.
    */
  private def advance(j: Long, tau: Long): Unit = {
    if (j <= lastIdx && lastIdx != RunState.NoClock) throw new IllegalArgumentException(
      s"out-of-order event for key '$key': idx $j is not after the key's last idx $lastIdx")
    lastIdx = j; horizon = tau
  }

  /** ExecTrans (Algorithm 1 lines 13–20). */
  private def execTrans(p: Int, ul: UnionList, v: scala.collection.immutable.BitSet,
                        j: Long, tNew: java.util.LinkedHashMap[Int, UnionList]): Unit = {
    val (qm, qu) = det.step(p, v)
    if (qm < 0 && qu < 0) return
    val n = ul.merge()
    if (qm >= 0) {
      val np = Tecs.extend(n, j)
      add(tNew, qm, np, UnionList.single(np))
    }
    if (qu >= 0) add(tNew, qu, n, ul)
  }

  /** Add (Algorithm 1 lines 22–27), with the NEXT/LAST retention variants. */
  private def add(tNew: java.util.LinkedHashMap[Int, UnionList], q: Int,
                  n: Node, ul: => UnionList): Unit = strategy match {
    case Strategy.All | Strategy.Max =>
      val existing = tNew.get(q)
      if (existing != null) existing.insert(n) else tNew.put(q, ul)
    case Strategy.Last => // latest start wins: states are processed in decreasing
      if (!tNew.containsKey(q)) tNew.put(q, ul) // max-start order, so the first add wins
    case Strategy.Next => // earliest start wins: the last add wins
      tNew.put(q, ul)
  }

  /** Output (Algorithm 1 lines 29–33): enumerate matches at final states.
    * Under MAX the matches are gathered, filtered, and the maximal ones
    * passed on.
    */
  private def output(j: Long, tau: Long, sink: MatchSink): Int = {
    var found = 0
    var anyFinal = false
    val it = t.entrySet().iterator()
    while (it.hasNext) {
      val e = it.next()
      if (det.isFinal(e.getKey)) {
        anyFinal = true
        if (limit < 0 || found < limit) {
          val target = if (strategy == Strategy.Max) maxSink else sink
          val t0 = System.nanoTime()
          found += cursor.run(e.getValue.merge(), j, tau, if (limit < 0) -1 else limit - found, target)
          enumNs += System.nanoTime() - t0
        }
      }
    }
    if (strategy == Strategy.Max && found > 0) {
      val kept = Engines.maximalOnly(maxSink.result())
      kept.foreach(ce => sink(ce.start, ce.end, ce.data.toArray, 0))
      found = kept.size
    }
    // Consumption policy: forget every partial match once a complex event is
    // recognized. A final state was reached even if limit = 0 suppressed the
    // enumeration, so we key on reaching a final state, not on emitted output.
    if (consume == Consume.Any && anyFinal)
      t = new java.util.LinkedHashMap[Int, UnionList]()
    found
  }
}

/** Runs one engine instance per partition-by key (§5.4): the stream is hashed
  * on the PARTITION BY attributes and each substream gets its own run.
  */
final class PartitionedEngine(mk: String => StreamEngine, keyFn: Ev => String) extends StreamEngine {
  private val engines = mutable.HashMap.empty[String, StreamEngine]
  def onEvent(ev: Ev): List[ComplexEvent] = {
    val key = keyFn(ev)
    var e = engines.getOrElse(key, null)
    if (e == null) { e = mk(key); engines.update(key, e) }
    e.onEvent(ev)
  }
  def enumNanos: Long = engines.valuesIterator.map(_.enumNanos).sum
  def numPartitions: Int = engines.size
  def reset(): Unit = engines.clear()
}

/** Engine factories. */
object Engines {

  /** Partition key: values of the PARTITION BY attributes, joined. */
  def partKeyFn(attrs: Seq[String]): Ev => String = attrs match {
    case Seq(a) => ev => Attr.str(ev, a)
    case _      => ev => attrs.map(a => Attr.str(ev, a)).mkString("|")
  }

  /** Build the CORE engine (with partition-by wrapper if the query has one).
    * The compiled automaton and determinization cache are shared across
    * partitions, as in the paper.
    */
  def core(q: CeqlQuery, limit: Int = -1): StreamEngine = {
    val (cea, reg) = Compiler.compile(q.pattern)
    val det = new Determinizer(cea, reg)
    coreFromDet(det, q, limit)
  }

  def coreFromDet(det: Determinizer, q: CeqlQuery, limit: Int): StreamEngine = {
    val mk = (key: String) => new CoreEngine(det, q.within, q.strategy, q.consume, limit, key)
    if (q.partitionBy.nonEmpty) new PartitionedEngine(mk, partKeyFn(q.partitionBy)) else mk("")
  }

  /** Keep only set-inclusion-maximal complex events (MAX strategy filter). */
  def maximalOnly(ms: List[ComplexEvent]): List[ComplexEvent] = {
    val sets = ms.iterator.map(_.data.toSet).toArray
    ms.iterator.zipWithIndex.filter { case (_, i) =>
      val s = sets(i)
      !sets.exists(o => s.size < o.size && s.subsetOf(o))
    }.map(_._1).toList
  }
}
