package repro.core.engine

import repro.core.{ComplexEvent, Ev}
import repro.core.cea.Determinizer
import repro.core.ceql._
import repro.core.pred.Attr
import repro.core.tecs._

/** Common interface of all engines (CORE + the three baselines): push one
  * event; the complex events recognized at its position (up to the configured
  * per-event output limit) go to a [[MatchSink]] as they are enumerated.
  */
trait StreamEngine extends Serializable {
  /** Passes the complex events recognized at `ev`'s position to `sink`, in
    * enumeration order; returns their number. */
  def onEvent(ev: Ev, sink: MatchSink): Int
  /** Cumulative nanoseconds spent enumerating outputs (for the Fig-7 split
    * into update vs enumeration throughput). */
  def enumNanos: Long

  @transient private lazy val listSink = new ListSink
  /** [[onEvent]]'s matches as a list, in enumeration order. */
  final def onEvent(ev: Ev): List[ComplexEvent] = { onEvent(ev, listSink); listSink.result() }
}

/** CORE's evaluation algorithm (Algorithm 1, §5.3) over an I/O-determinized
  * CEA, maintaining a tECS and an insertion-ordered table of active states:
  * the run of one substream under the shared `plan` ([[CompiledQuery.engine]]
  * builds it).
  *
  * The plan's query gives the rest of the configuration:
  * - its window gives ε and whether start values are positions or timestamps;
  * - strategy: ALL is the paper's algorithm; NEXT/LAST retain a single run
  *   per active state (earliest-/latest-start); MAX adds a maximality filter
  *   at enumeration (see DESIGN.md §3);
  * - `CONSUME BY ANY`: forget all partial matches when a match fires (§6 setup).
  *
  * The plan's `limit` is the max complex events enumerated per input event
  * (§6 uses 10); `limit = 0` measures pure update throughput; `limit < 0` =
  * unlimited. `key` is the PARTITION BY key of the substream, named in errors.
  *
  * Input contract: the [[RunClock]]'s (`idx` rises, the window start does not
  * fall), or `onEvent` throws without changing the state. Under a time window
  * `ts` may not fall; the codec keeps no window start, so that check lapses for
  * the first event after [[restore]].
  *
  * The run state — active-state table, tECS and window clock — is kept apart
  * from the plan: [[snapshot]] / [[restore]] move it through the [[RunState]]
  * codec. An engine's Java form is the plan (the query and the limit, never
  * the determinizer), the key and the codec bytes; a deserialized engine
  * compiles a fresh determinizer.
  */
final class CoreEngine(val plan: CompiledQuery, val key: String = "") extends KeyedRun {

  private def window = plan.query.within
  private def strategy = plan.query.strategy
  private def consume = plan.query.consume
  private def limit = plan.limit
  def det: Determinizer = plan.det

  /** Active det-states → union-lists, in insertion order (ordered-keys(T)). */
  @transient private var t = new StateTable
  /** The table the current event fills, empty between events; swapped with `t` after each event. */
  @transient private var tNew = new StateTable
  /** The window clock and the input-order contract. */
  @transient private var runClock = new RunClock(key)
  private var enumNs = 0L
  /** Enumeration cursor and MAX's candidate sink: built on first use, then reused. */
  @transient private lazy val cursor = new Enumerator
  @transient private lazy val maxSink = new ListSink

  def enumNanos: Long = enumNs
  def clock: RunClock = runClock
  def activeStates: Int = t.size

  /** Test hook: the active union-lists in insertion order. */
  def unionListsForTest: Seq[UnionList] = (0 until t.size).map(t.list)

  /** Test hook: the NFA-state sets of the active det-states, in insertion order. */
  def activeStateSetsForTest: Seq[List[Int]] = (0 until t.size).map(i => det.stateSet(t.state(i)).toList)

  /** The run state, encoded by [[RunState]]: no part of the plan. */
  def snapshot(): Array[Byte] = RunState.encode(det, t, runClock.lastIdx, runClock.start)

  /** Replaces the run state with a decoded [[snapshot]], which may come from
    * an engine whose plan numbered its det-states differently.
    */
  def restore(state: Array[Byte]): Unit = {
    val (table, lastIdx) = RunState.decode(det, state)
    t = table; runClock.restore(lastIdx)
  }

  // Java serialization: the plan and key by default, the run state through the codec.
  private def writeObject(out: java.io.ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    val state = snapshot()
    out.writeInt(state.length); out.write(state)
  }

  private def readObject(in: java.io.ObjectInputStream): Unit = {
    in.defaultReadObject()
    val state = new Array[Byte](in.readInt())
    in.readFully(state)
    tNew = new StateTable
    runClock = new RunClock(key)
    restore(state)
  }

  def onEvent(ev: Ev, sink: MatchSink): Int = {
    val j = ev.idx
    val now = window.clock(ev)
    val tau = now - window.epsilon
    runClock.advance(j, tau)
    val d = det
    val v = d.letter(ev)

    // Lines 7–8: a run may start at the current position.
    val fresh = d.step(d.initial, v)
    if (fresh == Determinizer.NoStep && t.isEmpty) return 0
    if (fresh != Determinizer.NoStep) execTrans(fresh, Tecs.newBottom(j, now), null, j)

    // Lines 9–10: extend runs of states active at j-1, in insertion order
    // (which the appendix proves is decreasing max-start order).
    var i = 0
    while (i < t.size) {
      val ul = t.list(i)
      if (ul.maxStart >= tau) { // expired states can never produce a match again
        ul.pruneExpired(tau)
        val s = d.step(t.state(i), v)
        if (s != Determinizer.NoStep) execTrans(s, ul.merge(), ul, j)
      }
      i += 1
    }
    val done = t
    done.clear(); t = tNew; tNew = done

    output(j, tau, sink)
  }

  /** ExecTrans (Algorithm 1 lines 13–20) for the packed step `s` of a state
    * whose union-list `ul` merges to `n`; a fresh run has only its bottom node
    * `n`, and `ul` is null.
    */
  private def execTrans(s: Long, n: Node, ul: UnionList, j: Long): Unit = {
    val qm = Determinizer.mark(s)
    val qu = Determinizer.unmark(s)
    if (qm >= 0) add(qm, Tecs.extend(n, j), null)
    if (qu >= 0) add(qu, n, ul)
  }

  /** Add (Algorithm 1 lines 22–27), with the NEXT/LAST retention variants:
    * `n` goes to state `q`, as the new list `ul` (a new list of `n` if null)
    * when `q` has none yet.
    */
  private def add(q: Int, n: Node, ul: UnionList): Unit = {
    val existing = tNew.get(q)
    if (existing == null) tNew.append(q, if (ul != null) ul else UnionList.single(n))
    else strategy match {
      case Strategy.All | Strategy.Max => existing.insert(n)
      case Strategy.Last => // latest start wins: states are processed in decreasing
                            // max-start order, so the first add wins
      case Strategy.Next => // earliest start wins: the last add wins, in the first one's place
        tNew.replace(q, if (ul != null) ul else UnionList.single(n))
    }
  }

  /** Output (Algorithm 1 lines 29–33): enumerate matches at final states.
    * Under MAX every match is gathered and filtered, and at most `limit` of
    * the maximal ones are passed on: a match is maximal only among all of them.
    */
  private def output(j: Long, tau: Long, sink: MatchSink): Int = {
    val max = strategy == Strategy.Max
    val cap = if (max && limit != 0) -1 else limit
    var found = 0
    var anyFinal = false
    var i = 0
    while (i < t.size) {
      if (det.isFinal(t.state(i))) {
        anyFinal = true
        if (cap < 0 || found < cap) {
          val t0 = System.nanoTime()
          found += cursor.run(t.list(i).merge(), j, tau, if (cap < 0) -1 else cap - found, if (max) maxSink else sink)
          enumNs += System.nanoTime() - t0
        }
      }
      i += 1
    }
    if (max && found > 0) {
      val kept = Engines.maximalOnly(maxSink.result()).take(if (limit < 0) Int.MaxValue else limit)
      kept.foreach(ce => sink(ce.start, ce.end, ce.data.toArray, 0))
      found = kept.size
    }
    // Consumption policy: forget every partial match once a complex event is
    // recognized. A final state was reached even if limit = 0 suppressed the
    // enumeration, so we key on reaching a final state, not on emitted output.
    if (consume == Consume.Any && anyFinal) t.clear()
    found
  }
}

/** Engine factories. */
object Engines {

  /** Partition key: values of the PARTITION BY attributes, joined by `|`
    * with each value's `\` and `|` escaped, so that distinct value tuples
    * have distinct keys; the constant `""` when there are none. It names a
    * run ([[CoreEngine.key]], `MatchRow.partKey`) and is rendered once per run.
    */
  def partKeyFn(attrs: Seq[String]): Ev => String = attrs match {
    case Seq()  => _ => ""
    case Seq(a) => ev => Attr.str(ev, a)
    case _      => ev => attrs.map(a => Attr.str(ev, a).replace("\\", "\\\\").replace("|", "\\|")).mkString("|")
  }

  /** The key runs are held under: the PARTITION BY attributes' values
    * ([[Attr.key]]), one value or a list of them, with no string built per
    * event; the constant `""` when there are none. Two events have equal
    * keys exactly when their [[partKeyFn]] keys are equal.
    */
  def runKeyFn(attrs: Seq[String]): Ev => AnyRef = attrs match {
    case Seq()  => _ => ""
    case Seq(a) => Attr.key(a)
    case _      => val keys = attrs.toList.map(Attr.key); ev => keys.map(_(ev))
  }

  /** Build the CORE engine: one run per PARTITION BY key in a [[RunTable]] if the query has one.
    * The compiled plan is shared across partitions, as in the paper.
    */
  def core(q: CeqlQuery, limit: Int = -1): StreamEngine = perKey(q, new CompiledQuery(q, limit).engine)

  /** [[core]] on a determinizer already compiled from `q`. */
  def coreFromDet(det: Determinizer, q: CeqlQuery, limit: Int): StreamEngine =
    perKey(q, new CompiledQuery(q, limit, Some(det)).engine)

  /** One run from `run` per PARTITION BY key of `q`, or a single run if it has none. */
  def perKey[R <: KeyedRun](q: CeqlQuery, run: String => R): StreamEngine =
    if (q.partitionBy.nonEmpty) new RunTable(q, run) else run("")

  /** Keep only set-inclusion-maximal complex events (MAX strategy filter). */
  def maximalOnly(ms: List[ComplexEvent]): List[ComplexEvent] = {
    val sets = ms.iterator.map(_.data.toSet).toArray
    ms.iterator.zipWithIndex.filter { case (_, i) =>
      val s = sets(i)
      !sets.exists(o => s.size < o.size && s.subsetOf(o))
    }.map(_._1).toList
  }
}
