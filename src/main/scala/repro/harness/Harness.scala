package repro.harness

import repro.core.Ev
import repro.core.engine.StreamEngine

/** One benchmark measurement (≈ one bar of the paper's Figures 7–9).
  *
  * Throughputs in events/s; `updateThroughput` excludes enumeration time and
  * `enumThroughput` is outputs per enumeration-second (the Fig-7 split).
  */
final case class Measurement(
    system: String,
    config: String,
    events: Long,
    matches: Long,
    seconds: Double,
    enumSeconds: Double,
    memMB: Double,
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

  def measure(system: String, config: String, engine: StreamEngine,
              stream: Iterator[Ev], budgetMs: Long = budgetMs,
              measureMem: Boolean = false): Measurement = {
    var events = 0L
    var matches = 0L
    val t0 = System.nanoTime()
    val deadline = t0 + budgetMs * 1000000L
    var continue = true
    while (continue && stream.hasNext) {
      matches += engine.onEvent(stream.next()).size
      events += 1
      if ((events & 255) == 0 && System.nanoTime() > deadline) continue = false
    }
    val seconds = (System.nanoTime() - t0) / 1e9
    val mem =
      if (measureMem) { System.gc(); Thread.sleep(50)
        (Runtime.getRuntime.totalMemory() - Runtime.getRuntime.freeMemory()) / 1e6 }
      else 0.0
    Measurement(system, config, events, matches, seconds, engine.enumNanos / 1e9, mem)
  }

  /** Peak partial-match state, measured as the serialized engine size (KB),
    * sampled every `sampleEvery` events. At laptop scale the paper's
    * JVM-heap measurement is dominated by the preloaded stream, so this
    * proxy isolates exactly what Fig 7 (bottom-right) is about: how much
    * each system stores to remember partial matches.
    */
  def statePeakKB(engine: StreamEngine, stream: Iterator[Ev],
                  events: Long, sampleEvery: Long = 1000): Double = {
    var n = 0L
    var peak = 0
    while (n < events && stream.hasNext) {
      engine.onEvent(stream.next())
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

  /** Render measurements as a GitHub-flavoured markdown table. */
  def table(title: String, ms: Seq[Measurement], showMem: Boolean = false,
            showSplit: Boolean = false): String = {
    val sb = new StringBuilder
    sb ++= s"\n### $title\n\n"
    val cols = Seq("system", "config", "events", "matches", "throughput e/s") ++
      (if (showSplit) Seq("update e/s", "enum out/s") else Nil) ++
      (if (showMem) Seq("peak state KB") else Nil)
    sb ++= cols.mkString("| ", " | ", " |\n")
    sb ++= cols.map(_ => "---").mkString("| ", " | ", " |\n")
    for (m <- ms) {
      val row = Seq(m.system, m.config, m.events.toString, m.matches.toString, f"${m.throughput}%.0f") ++
        (if (showSplit) Seq(f"${m.updateThroughput}%.0f", f"${m.enumThroughput}%.0f") else Nil) ++
        (if (showMem) Seq(f"${m.memMB}%.1f") else Nil)
      sb ++= row.mkString("| ", " | ", " |\n")
    }
    sb.toString
  }
}
