package repro.harness

import repro.core.Ev
import repro.core.engine.StreamEngine
import repro.core.tecs.MatchSink
import repro.gen.StreamGen
import repro.harness.Workloads.Table

/** One benchmark measurement (≈ one bar of the paper's Figures 7–9).
  *
  * Throughputs in events/s; `updateThroughput` excludes enumeration time and
  * `enumThroughput` is outputs per enumeration-second (the Fig-7 split).
  * `stateKB` is the peak partial-match state ([[Harness.statePeakKB]]), 0 when
  * not measured.
  */
final case class Measurement(
    system: String,
    config: String,
    events: Long,
    matches: Long,
    seconds: Double,
    enumSeconds: Double,
    stateKB: Double,
) {
  def throughput: Double = events / seconds
  def updateThroughput: Double = events / math.max(1e-9, seconds - enumSeconds)
  def enumThroughput: Double = if (matches == 0) 0.0 else matches / math.max(1e-9, enumSeconds)
}

/** Measurement loop mirroring the paper's setup (§6): the input stream is
  * pre-generated in memory; we process events for a fixed wall-clock budget
  * and report events/s. The budget defaults to 1 s (vs the paper's 30 s) and
  * is configurable via the BENCH_MS env var.
  */
object Harness {

  val budgetMs: Long = sys.env.getOrElse("BENCH_MS", "1000").toLong

  /** Length of a table's state pass: fixed, so that the peak state depends on
    * the query and the stream only, not on how fast the engine ran. */
  val StateEvents: Long = 100000L

  /** Drops every match: a measurement counts matches, it keeps none. */
  private val discard: MatchSink = (_, _, _, _) => ()

  def measure(system: String, config: String, engine: StreamEngine,
              stream: Iterator[Ev], budgetMs: Long = budgetMs): Measurement = {
    var events = 0L
    var matches = 0L
    val t0 = System.nanoTime()
    val deadline = t0 + budgetMs * 1000000L
    while (stream.hasNext && System.nanoTime() <= deadline) {
      matches += engine.onEvent(stream.next(), discard)
      events += 1
    }
    val seconds = (System.nanoTime() - t0) / 1e9
    Measurement(system, config, events, matches, seconds, engine.enumNanos / 1e9, 0.0)
  }

  /** Measures every system of every row of `t` for `budgetMs` each, on an
    * endless cycle of the row's base stream of `events` events (the paper
    * pre-loads a stream larger than any system can process in the budget).
    * A table with `stateAndSplit` also gets each system's [[statePeakKB]]
    * over the first [[StateEvents]] events of the cycle.
    */
  def runTable(t: Table, events: Int, budgetMs: Long): Seq[Measurement] = {
    val first = t.rows.head
    val firstBase = first.stream(events)
    // JIT warm-up on the first configuration, before anything is measured.
    first.systems.foreach { case (_, mk) => warmup(mk, firstBase, 200) }
    t.rows.flatMap { row =>
      val base = row.stream(events)
      row.systems.map { case (sys, mk) =>
        // Per-measurement JIT warm-up on a throwaway engine, then a clean GC, so
        // the first configs measured are not penalized relative to later ones.
        warmup(mk, base, 150)
        System.gc()
        val m = measure(sys, row.config, mk(), endless(base), budgetMs)
        if (!t.stateAndSplit) m
        else {
          // Memory is measured in a separate pass, as in the paper (§6 Setup).
          m.copy(stateKB = statePeakKB(mk(), endless(base), StateEvents))
        }
      }
    }
  }

  private def endless(base: Array[Ev]): Iterator[Ev] = StreamGen.cycled(base, Long.MaxValue / 4)

  private def warmup(mk: () => StreamEngine, base: Array[Ev], ms: Long): Unit = {
    val _ = measure("warmup", "", mk(), endless(base), ms)
  }

  /** Peak partial-match state, measured as the serialized engine size (KB),
    * sampled every `sampleEvery` events. At laptop scale the paper's
    * JVM-heap measurement is dominated by the preloaded stream, so this
    * proxy isolates exactly what Fig 7 (bottom-right) is about: how much
    * each system stores to remember partial matches. CORE's serialized form is
    * its query and its run-state codec bytes; a baseline's is its compiled CEA
    * and its partial matches.
    */
  def statePeakKB(engine: StreamEngine, stream: Iterator[Ev],
                  events: Long, sampleEvery: Long = 1000): Double = {
    var n = 0L
    var peak = 0
    while (n < events && stream.hasNext) {
      engine.onEvent(stream.next(), discard)
      n += 1
      if (n % sampleEvery == 0) {
        val bos = new java.io.ByteArrayOutputStream()
        val oos = new java.io.ObjectOutputStream(bos)
        oos.writeObject(engine); oos.close()
        peak = math.max(peak, bos.size())
      }
    }
    peak / 1024.0
  }

  /** Render the measurements of table `t` as a GitHub-flavoured markdown
    * table under its title, with Fig 7's split and state columns if `t` has them.
    */
  def table(t: Table, ms: Seq[Measurement]): String = {
    val sb = new StringBuilder
    sb ++= s"\n### ${t.title}\n\n"
    val cols = Seq("system", "config", "events", "matches", "throughput e/s") ++
      (if (t.stateAndSplit) Seq("update e/s", "enum out/s", "peak state KB") else Nil)
    sb ++= cols.mkString("| ", " | ", " |\n")
    sb ++= cols.map(_ => "---").mkString("| ", " | ", " |\n")
    for (m <- ms) {
      val row = Seq(m.system, m.config, m.events.toString, m.matches.toString, f"${m.throughput}%.0f") ++
        (if (t.stateAndSplit) Seq(f"${m.updateThroughput}%.0f", f"${m.enumThroughput}%.0f", f"${m.stateKB}%.1f")
         else Nil)
      sb ++= row.mkString("| ", " | ", " |\n")
    }
    sb.toString
  }
}
