package perfbench

import java.io.{ObjectOutputStream, OutputStream}
import repro.baselines.Baselines
import repro.core.cea.{Compiler, Determinizer}
import repro.core.ceql.{CeqlParser, CeqlQuery, Consume, Strategy}
import repro.core.engine.{CoreEngine, Engines, StreamEngine}
import repro.core.tecs.{Enumerator, UnionList}
import repro.core.{ComplexEvent, Ev}
import scala.collection.mutable

/** The single-engine side of the benchmark: query set-up, fixed-count timed
  * trials, the correctness gate, and the traced per-layer pass.
  */
object EngineBench {

  /** Every 16th `onEvent` call is timed on its own; timing every call costs ~25% of throughput. */
  val SampleMask = 15
  /** Events checked against the independent reference engine. */
  val EsperPrefix = 20000
  val SetupReps = 301
  val StateSegments = 40
  val WarmupSeconds = 1.5

  // ------------------------------------------------------------------ set-up

  /** Medians are taken over `SetupReps` set-ups; the first ones run before the JIT has compiled the parser.
    * `seconds` is the CPU time of each set-up, `parseMs` and `compileMs` the wall time of its parts.
    */
  final case class Setup(q: CeqlQuery, seconds: Seq[Double], parseMs: Seq[Double], compileMs: Seq[Double])

  def setup(wl: Workload, tracer: Tracer): Setup = {
    val secs = Seq.newBuilder[Double]; val parse = Seq.newBuilder[Double]; val comp = Seq.newBuilder[Double]
    var q: CeqlQuery = null
    for (_ <- 0 until SetupReps) tracer.span("bench.setup", -1) { root =>
      val c0 = Stats.threadCpuNanos()
      val t0 = System.nanoTime()
      q = tracer.span("ceql.parse", root)(_ => CeqlParser.parse(wl.ceql))
      val t1 = System.nanoTime()
      tracer.span("cea.compile", root) { _ =>
        val (cea, reg) = Compiler.compile(q.pattern)
        Engines.coreFromDet(new Determinizer(cea, reg), q, wl.limit)
      }
      val t2 = System.nanoTime()
      secs += (Stats.threadCpuNanos() - c0) / 1e9; parse += (t1 - t0) / 1e6; comp += (t2 - t1) / 1e6
    }
    Setup(q, secs.result(), parse.result(), comp.result())
  }

  // ------------------------------------------------------------------ trials

  /** One fixed-count trial; `eventNs` are the sampled `onEvent` service times. */
  final case class Trial(events: Int, ns: Long, enumNs: Long, outputs: Long, checksum: Long,
                         allocBytes: Long, gcMs: Long, eventNs: Array[Double])

  /** Order-independent digest of one complex event; trials sum it over all outputs. */
  def digest(ce: ComplexEvent): Long = {
    var h = ce.start * 0x9E3779B97F4A7C15L + ce.end
    var l = ce.data
    while (l.nonEmpty) { h = h * 31 + l.head; l = l.tail }
    h ^ (h >>> 29)
  }

  /** Pushes the whole input through `engine` once, consuming every output as a client would. */
  def trial(engine: StreamEngine, input: Array[Ev]): Trial = {
    val samples = new LongBuf(input.length / (SampleMask + 1) + 1)
    System.gc()
    val alloc0 = Stats.threadAllocatedBytes(); val gc0 = Stats.gcMillis(); val enum0 = engine.enumNanos
    val t0 = System.nanoTime()
    var outputs = 0L; var sum = 0L
    var i = 0
    while (i < input.length) {
      var out: List[ComplexEvent] = null
      if ((i & SampleMask) == 0) {
        val s = System.nanoTime(); out = engine.onEvent(input(i)); samples += System.nanoTime() - s
      } else out = engine.onEvent(input(i))
      while (out.nonEmpty) { outputs += 1; sum += digest(out.head); out = out.tail }
      i += 1
    }
    val ns = System.nanoTime() - t0
    Trial(input.length, ns, engine.enumNanos - enum0, outputs, sum,
      Stats.threadAllocatedBytes() - alloc0, Stats.gcMillis() - gc0,
      samples.toDoubles)
  }

  /** Fixed-count trials, each with a fresh engine, until `seconds` have passed (at least `minTrials`). */
  def measure(mk: () => StreamEngine, input: Array[Ev], seconds: Double, minTrials: Int): Seq[Trial] = {
    val out = Seq.newBuilder[Trial]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var k = 0
    while (k < minTrials || System.nanoTime() < deadline) { out += trial(mk(), input); k += 1 }
    out.result()
  }

  /** A per-trial figure, summarized over the trials by [[Stats.fast]]. */
  def overTrials(name: String, unit: String, trials: Seq[Trial], f: Trial => Double): Metric =
    Metric(name, Stats.fast(trials.map(f)), unit, trials.size)

  /** Warm-up, then the timed trials (at least 8), checked against the reference. */
  def timedTrials(mk: () => StreamEngine, input: Array[Ev], seconds: Double, ref: Reference, gate: Gate): Seq[Trial] = {
    measure(mk, input, WarmupSeconds, 2)
    val trials = measure(mk, input, seconds, 8)
    checkTrials(trials, ref, gate)
    trials
  }

  /** Single-engine events per second. */
  def throughput(trials: Seq[Trial]): Metric =
    Metric("events_per_s", trials.head.events / Stats.fast(trials.map(_.ns / 1e9)), "1/s", trials.size)

  /** `onEvent` service time: a percentile of each trial's sampled calls. */
  def serviceTime(name: String, trials: Seq[Trial], p: Double): Metric =
    overTrials(name, "ns", trials, t => Stats.quantile(t.eventNs, p))

  // ------------------------------------------------------- correctness gate

  /** Counts events checked (`attempted`) and events whose outputs were wrong (`failed`). */
  final class Gate {
    var attempted = 0L
    var failed = 0L
    val notes = mutable.ArrayBuffer.empty[String]
    def check(units: Long, ok: Boolean, what: => String): Unit = {
      attempted += units
      if (!ok) { failed += units; notes += s"FAILED: $what" }
    }
  }

  /** A reference run of the input: output count and digest. */
  final case class Reference(outputs: Long, checksum: Long)

  def reference(q: CeqlQuery, limit: Int, input: Array[Ev]): Reference = {
    val engine = Engines.core(q, limit)
    var outputs = 0L; var sum = 0L
    input.foreach(ev => engine.onEvent(ev).foreach { ce => outputs += 1; sum += digest(ce) })
    Reference(outputs, sum)
  }

  /** The input is cut into `StateSegments` equal segments, each run through a
    * fresh engine as one key's substream; returns the serialized engine size
    * (what `CoreStreaming` stores for the key) at the end of each segment.
    * The reachable tECS can outgrow the window and then shrink at random
    * points of a stream, so one long run gives a figure that swings with the
    * seed; the median over segments does not.
    */
  def segmentStateBytes(q: CeqlQuery, limit: Int, input: Array[Ev]): Seq[Double] =
    input.grouped(math.max(1, input.length / StateSegments)).take(StateSegments).map { seg =>
      val engine = Engines.core(q, limit)
      seg.foreach(engine.onEvent)
      serializedSize(engine).toDouble
    }.toSeq

  def serializedSize(o: AnyRef): Long = {
    var n = 0L
    val counter = new OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val oos = new ObjectOutputStream(counter)
    oos.writeObject(o); oos.close()
    n
  }

  /** Per event on a prefix, CORE must agree with the Esper-style baseline: the
    * same match sets when the output is unlimited, the same counts under a limit
    * (each engine may pick a different subset of the matches).
    */
  def checkAgainstEsper(q: CeqlQuery, limit: Int, input: Array[Ev], gate: Gate): Unit = {
    val core = Engines.core(q, limit)
    val esper = Baselines.esper(q, limit)
    var bad = 0L
    val n = math.min(EsperPrefix, input.length)
    for (i <- 0 until n) {
      val a = core.onEvent(input(i)); val b = esper.onEvent(input(i))
      val same = if (limit < 0) a.toSet == b.toSet else a.size == b.size
      if (!same) bad += 1
    }
    gate.attempted += n; gate.failed += bad
    if (bad > 0) gate.notes += s"FAILED: $bad of $n events differ from the Esper-style reference"
  }

  /** The gate for one input: reference run, Esper prefix, and the workload's output expectation. */
  def gateFor(wl: Workload, q: CeqlQuery, input: Array[Ev], gate: Gate): Reference = {
    val ref = reference(q, wl.limit, input)
    checkAgainstEsper(q, wl.limit, input, gate)
    gate.check(input.length, (ref.outputs > 0) == wl.expectOutputs,
      s"${ref.outputs} outputs over the input, expected ${if (wl.expectOutputs) "some" else "none"}")
    ref
  }

  def checkTrials(trials: Seq[Trial], ref: Reference, gate: Gate): Unit =
    trials.foreach(t => gate.check(t.events, t.outputs == ref.outputs && t.checksum == ref.checksum,
      s"trial produced ${t.outputs} outputs (digest ${t.checksum}), reference ${ref.outputs} (${ref.checksum})"))

  // ------------------------------------------------------ traced per-layer pass

  final case class Layers(metrics: Seq[Metric], notes: Seq[String])

  /** Per-layer metrics of the single engine: counters of the untraced `trials`,
    * then one traced pass for the split of `onEvent` into layers.
    */
  def engineLayers(wl: Workload, su: Setup, input: Array[Ev], trials: Seq[Trial],
                   tracer: Tracer, gate: Gate, ref: Reference): Layers = {
    val untracedEps = throughput(trials).value
    val tp = tracedPass(su.q, wl.limit, input, tracer)
    gate.check(input.length, tp.outputs == ref.outputs,
      s"traced pass produced ${tp.outputs} outputs, reference ${ref.outputs}")
    // CONSUME BY ANY drops the matched lists inside `onEvent`, before they can be
    // enumerated again; node visits are counted on a CONSUME BY NONE engine instead.
    val visitsPass =
      if (su.q.consume == Consume.Any) new Replay(su.q.copy(consume = Consume.None), wl.limit, new Tracer(false)).run(input)
      else tp
    val (bitsNs, bitsCalls) = tracer.totals("pred.bits")
    val (stepNs, stepCalls) = tracer.totals("cea.step")
    val enumNs = trials.map(_.enumNs).sum.toDouble
    val outputs = trials.map(_.outputs).sum.toDouble
    def medianOf(f: Trial => Double): Double = Stats.median(trials.map(f))
    val metrics = Seq(
      Metric("ceql.parse_ms", Stats.median(su.parseMs), "ms", su.parseMs.size),
      Metric("cea.compile_ms", Stats.median(su.compileMs), "ms", su.compileMs.size),
      Metric("pred.atoms", tp.atoms, "count", 1),
      Metric("pred.bits_ns", Stats.ratio(bitsNs - Stats.timerNs * tracer.spans("pred.bits"), bitsCalls), "ns", bitsCalls),
      Metric("cea.step_ns", Stats.ratio(stepNs - Stats.timerNs * tracer.spans("cea.step"), stepCalls), "ns", stepCalls),
      Metric("cea.steps_per_event", tp.steps.toDouble / input.length, "count", input.length),
      Metric("cea.det_states", tp.detStates, "count", 1),
      Metric("cea.cache_entries", tp.cacheEntries, "count", 1),
      Metric("cea.cache_hit_ratio", 1.0 - Stats.ratio(tp.cacheEntries, tp.steps), "1", tp.steps),
      overTrials("engine.update_ns", "ns", trials, t => (t.ns - t.enumNs).toDouble / t.events),
      serviceTime("engine.event_ns_p50", trials, 0.50),
      serviceTime("engine.event_ns_p99", trials, 0.99),
      Metric("engine.alloc_bytes_per_event", medianOf(t => t.allocBytes.toDouble / t.events), "bytes", trials.size),
      Metric("engine.gc_ms_per_s", trials.map(_.gcMs).sum / (trials.map(_.ns).sum / 1e9), "ms/s", trials.size),
      Metric("engine.active_states_mean", tp.activeStates / input.length, "count", input.length),
      Metric("tecs.enum_ns_per_output", Stats.ratio(enumNs, outputs), "ns", outputs.toLong),
      Metric("tecs.enum_share", Stats.ratio(enumNs, trials.map(_.ns).sum.toDouble), "1", trials.size),
      Metric("tecs.outputs_per_event", outputs / trials.map(_.events.toLong).sum, "count", trials.size),
      Metric("tecs.visits_per_output", Stats.ratio(visitsPass.visits, visitsPass.replayOutputs), "count", visitsPass.replayOutputs),
      Metric("tecs.union_list_len_mean", Stats.ratio(tp.listLenSum, tp.lists), "count", tp.lists),
      Metric("trace.slowdown", untracedEps / tp.eventsPerS, "1", trials.size),
    )
    val mismatches = tp.mirrorMismatches + (if (visitsPass eq tp) 0 else visitsPass.mirrorMismatches)
    val notes = Seq(
      f"untraced single engine: $untracedEps%.0f events/s; traced pass: ${tp.eventsPerS}%.0f events/s",
    ) ++ (if (mismatches > 0)
      Seq(s"WARNING: the benchmark's mirror of the active states disagreed on $mismatches events; pred/cea replay metrics are approximate")
    else Nil)
    Layers(metrics, notes)
  }

  final case class TracedPass(eventsPerS: Double, outputs: Long, steps: Long, activeStates: Double,
                              listLenSum: Long, lists: Long, visits: Long, replayOutputs: Long,
                              atoms: Int, detStates: Int, cacheEntries: Int, mirrorMismatches: Long)

  /** One pass with a disabled tracer to compile the replay code, then the traced pass. */
  def tracedPass(q: CeqlQuery, limit: Int, input: Array[Ev], tracer: Tracer): TracedPass = {
    new Replay(q, limit, new Tracer(false)).run(input)
    new Replay(q, limit, tracer).run(input)
  }

  /** One engine of one partition key, plus the benchmark's mirror of its
    * active det-states (Algorithm 1's ordered-keys(T)), which it needs to
    * replay `Determinizer.step` on the same (state, bit vector) pairs.
    */
  private final class Keyed(val engine: CoreEngine) {
    var states: Array[Int] = Array.emptyIntArray
    var lists: Seq[UnionList] = Nil
  }

  /** The traced pass: one engine per partition key sharing one determinizer,
    * as `Engines.core` builds them. Each replayed call is a method of its own,
    * so the JIT compiles it as it compiles the same call inside the engine.
    */
  private final class Replay(q: CeqlQuery, limit: Int, tracer: Tracer) {
    require(q.strategy == Strategy.All, "the active-state mirror follows the ALL strategy")
    private val perKey = q.copy(partitionBy = Nil)
    private val (cea, reg) = Compiler.compile(perKey.pattern)
    private val det = new Determinizer(cea, reg)
    private val keyFn: Ev => String = if (q.partitionBy.nonEmpty) Engines.partKeyFn(q.partitionBy) else _ => ""
    private val keyed = mutable.HashMap.empty[String, Keyed]
    private var outputs, steps, listLen, lists, visits, replayOut, mismatches = 0L
    private var active = 0.0
    private val counter = new Enumerator.Counter

    def run(input: Array[Ev]): TracedPass = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < input.length) { event(input(i), (i & SampleMask) == 0); i += 1 }
      val secs = (System.nanoTime() - t0) / 1e9
      TracedPass(input.length / secs, outputs, steps, active, listLen, lists, visits, replayOut,
        reg.size, det.numDetStates, det.cacheSize, mismatches)
    }

    private def event(ev: Ev, sampled: Boolean): Unit = {
      val k = keyed.getOrElseUpdate(keyFn(ev),
        new Keyed(Engines.coreFromDet(det, perKey, limit).asInstanceOf[CoreEngine]))
      val tau = (if (q.within.countBased) ev.idx else ev.ts) - q.within.epsilon
      // Lines 9-10 of Algorithm 1 extend only states whose list is still in the window.
      val alive = k.states.iterator.zip(k.lists.iterator).collect { case (p, ul) if ul.maxStart >= tau => p }.toArray
      val evSpan = if (sampled) tracer.open("bench.event", -1) else -1

      val enum0 = k.engine.enumNanos
      val s0 = System.nanoTime()
      val out = k.engine.onEvent(ev)
      val s1 = System.nanoTime()
      val on = if (sampled) tracer.record("engine.onEvent", evSpan, s0, s1) else -1
      // The engine times its own enumeration: that span has the engine's length and ends with the call.
      val enumNs = k.engine.enumNanos - enum0
      if (sampled && enumNs > 0) tracer.record("tecs.enumerate", on, s1 - enumNs, s1, out.size)
      outputs += out.size

      val b0 = System.nanoTime()
      val v = det.bits(ev)
      val b1 = System.nanoTime()
      if (sampled) tracer.record("pred.bits", on, b0, b1)

      val targets = new Array[Int](2 * (alive.length + 1))
      val c0 = System.nanoTime()
      replaySteps(alive, v, targets)
      val c1 = System.nanoTime()
      if (sampled) tracer.record("cea.step", on, c0, c1, alive.length + 1)
      steps += alive.length + 1

      val next = mutable.LinkedHashSet.empty[Int]
      targets.foreach(t => if (t >= 0) next += t)
      val reachedFinal = next.exists(det.isFinal)
      k.states = if (q.consume == Consume.Any && reachedFinal) Array.emptyIntArray else next.toArray
      k.lists = k.engine.unionListsForTest
      if (k.lists.size != k.states.length || k.engine.activeStates != k.states.length) {
        mismatches += 1; k.states = Array.emptyIntArray; k.lists = Nil
      }
      active += k.engine.activeStates
      k.lists.foreach(ul => listLen += ul.size)
      lists += k.lists.size
      if (sampled && k.lists.nonEmpty) {
        val m0 = System.nanoTime()
        replayMerges(k.lists)
        val m1 = System.nanoTime()
        tracer.record("tecs.merge", on, m0, m1, k.lists.size)
      }
      // Visits can be counted only while the matched lists are still held,
      // i.e. not after CONSUME BY ANY has dropped them.
      if (sampled && reachedFinal && k.states.nonEmpty && replayEnumerate(k, ev.idx, tau) != out.size)
        mismatches += 1
      tracer.close(evSpan)
    }

    /** `Determinizer.step` from the initial state and each alive state; targets in call order. */
    private def replaySteps(alive: Array[Int], v: scala.collection.immutable.BitSet, targets: Array[Int]): Unit = {
      var s = 0
      while (s <= alive.length) {
        val (qm, qu) = det.step(if (s == 0) det.initial else alive(s - 1), v)
        targets(2 * s) = qm; targets(2 * s + 1) = qu
        s += 1
      }
    }

    /** `UnionList.merge` on each held list: the tECS work Algorithm 1's ExecTrans does per active state. */
    private def replayMerges(held: Seq[UnionList]): Unit = held.foreach(_.merge())

    /** Enumerates the final states' lists again, as Algorithm 1's Output does, counting node visits. */
    private def replayEnumerate(k: Keyed, j: Long, tau: Long): Int = {
      var found = 0
      for ((p, ul) <- k.states.iterator.zip(k.lists.iterator) if det.isFinal(p)) {
        val remaining = if (limit < 0) -1 else limit - found
        if (limit < 0 || remaining > 0) {
          counter.n = 0
          val got = Enumerator.enumerate(ul.merge(), j, tau, remaining, Some(counter)).size
          found += got; visits += counter.n; replayOut += got
        }
      }
      found
    }
  }

  /** Self time per layer over every recorded span, in ms. */
  def selfTimes(tracer: Tracer): Seq[Metric] = {
    val self = tracer.selfNanosByLayer
    Seq("bench", "ceql", "cea", "pred", "engine", "tecs", "spark").map { l =>
      Metric(s"self_ms.$l", self.getOrElse(l, 0L) / 1e6, "ms", tracer.size)
    }
  }
}
