package perfbench

import java.lang.management.ManagementFactory
import repro.core.Ev
import repro.core.engine.Engines
import repro.gen.StreamGen
import repro.harness.Workloads
import scala.jdk.CollectionConverters._

/** One benchmark workload: a CEQL query, its per-event output limit, and a
  * seeded input generator. Every workload runs through `CoreBatch` jobs and
  * `CoreStreaming` micro-batches of `batchEvents`, and in the traced run also
  * through a single engine, for `engineShare` of `--seconds`. `keyed`
  * workloads report Spark's `setup_s`, the others the single engine's.
  */
final case class Workload(
    name: String,
    ceql: String,
    limit: Int,
    defaultEvents: Int,
    input: (Int, Long) => Array[Ev],
    expectOutputs: Boolean,
    keyed: Boolean,
    batchEvents: Int,
    engineShare: Double,
)

object Workload {
  /** Paper T2 at T=100 (§6, Fig 8): A3 never occurs, so only the update path runs. */
  val seq3NoMatch = Workload("seq3_nomatch",
    "SELECT * FROM RandomStream WHERE A1; A2; A3 WITHIN 100 events CONSUME BY ANY",
    limit = 10, defaultEvents = 200000,
    (n, seed) => StreamGen.randomStream(n, Seq("A1", "A2"), seed = seed),
    expectOutputs = false, keyed = false, batchEvents = 10000, engineShare = 0.5)

  /** The same pattern under default CEQL semantics: every match is enumerated. */
  val seq3AllMatches = Workload("seq3_allmatches",
    "SELECT * FROM RandomStream WHERE A1; A2; A3 WITHIN 100 events",
    limit = -1, defaultEvents = 100000,
    (n, seed) => StreamGen.randomStream(n, Seq("A1", "A2", "A3"), seed = seed),
    expectOutputs = true, keyed = false, batchEvents = 10000, engineShare = 0.5)

  /** Stock query Q3 (appendix C) over ~1000 live `volume` keys, ~10 in-window events per key. */
  val sparkQ3Keyed = Workload("spark_q3_keyed", Workloads.stockQueryTexts("Q3"),
    limit = 10, defaultEvents = 400000,
    (n, seed) => StreamGen.stockStream(n, seed = seed, nVolumes = 1000, tsStepMs = 3),
    expectOutputs = true, keyed = true, batchEvents = 6250, engineShare = 0.25)

  val all: Seq[Workload] = Seq(seq3NoMatch, seq3AllMatches, sparkQ3Keyed)
}

/** Command-line options; see perfbench/README.md. */
final case class Opts(
    workload: Workload,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    events: Int,
    traceFile: Option[String],
    cores: Int,
    workDir: String,
)

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workload.all.find(_.name == get("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${get("workload")}; one of ${Workload.all.map(_.name).mkString(", ")}"))
    val o = Opts(
      workload = wl,
      seed = get("seed").toLong,
      seconds = get("seconds").toDouble,
      trace = get("trace") == "1",
      events = kv.get("events").map(_.toInt).getOrElse(wl.defaultEvents),
      traceFile = kv.get("trace-file"),
      cores = get("cores").toInt,
      workDir = get("work-dir"),
    )
    require(o.seconds > 0 && o.events > 0 && o.cores > 0, s"bad options $o")
    o
  }
}

/** Runs one workload in this JVM and prints its metrics; the last line of
  * standard output is the JSON result.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    val rt = ManagementFactory.getRuntimeMXBean
    println(s"env: java=${System.getProperty("java.version")} vm=${System.getProperty("java.vm.name")} " +
      s"nproc=${Runtime.getRuntime.availableProcessors} maxHeapMB=${Runtime.getRuntime.maxMemory >> 20} " +
      s"gc=${ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+")} " +
      s"jvmArgs=${rt.getInputArguments.asScala.filter(_.startsWith("-X")).mkString(" ")}")
    println(s"run: workload=${o.workload.name} seed=${o.seed} events=${o.events} seconds=${o.seconds} " +
      s"trace=${if (o.trace) 1 else 0}")
    val tracer = new Tracer(o.trace)
    val r = Bench.run(o, tracer)
    o.traceFile.filter(_ => o.trace).foreach { f =>
      tracer.write(f); println(s"trace: ${tracer.size} spans written to $f")
    }
    r.notes.foreach(n => println(s"note: $n"))
    r.table.foreach(println)
    println(r.json)
    System.out.flush()
    // Spark leaves non-daemon threads behind; the result is printed, so end here.
    sys.exit(0)
  }
}

/** One run: set-up and the correctness gate, then either the untraced Spark
  * pass (end-to-end metrics) or single-engine trials, the traced pass and a
  * traced Spark pass (per-layer metrics).
  */
object Bench {
  def run(o: Opts, tracer: Tracer): Result = {
    val wl = o.workload
    val ph = new Phases
    val su = ph("setup")(EngineBench.setup(wl, tracer))
    val input = ph("input")(wl.input(o.events, o.seed))
    val gate = new EngineBench.Gate
    val ref = ph("gate")(EngineBench.gateFor(wl, su.q, input, gate))
    val mk = () => Engines.core(su.q, wl.limit)
    if (!o.trace) {
      val u = ph("spark")(SparkBench.run(o, su.q, wl.limit, input, o.seconds, tracer, gate))
      val sp = SparkBench.metrics(u)
      lazy val state = ph("state")(EngineBench.segmentStateBytes(su.q, wl.limit, input))
      val metrics = Seq("events_per_cpu_s", "batch_job_cpu_s", "microbatch_cpu_ms_p50", "microbatch_cpu_ms_p90").map(sp) ++ (
        if (wl.keyed) Seq(sp("state_bytes_per_key"), sp("setup_s"))
        else Seq(Metric("state_bytes_per_key", Stats.median(state), "bytes", state.size),
                 Metric("setup_s", Stats.median(su.seconds), "s", su.seconds.size)))
      Result(gate.attempted, gate.failed, metrics, gate.notes.toSeq ++ SparkBench.notes(u) :+ ph.note)
    } else {
      val engineSeconds = o.seconds * wl.engineShare
      val sparkSeconds = o.seconds - engineSeconds
      val trials = ph("engine")(EngineBench.timedTrials(mk, input, engineSeconds, ref, gate))
      val layers = ph("traced")(EngineBench.engineLayers(wl, su, input, trials, tracer, gate, ref))
      val spark = ph("spark")(SparkBench.traced(o, su.q, wl.limit, input, sparkSeconds,
        EngineBench.throughput(trials).value, tracer, gate))
      Result(gate.attempted, gate.failed, layers.metrics ++ spark ++ EngineBench.selfTimes(tracer),
        gate.notes.toSeq ++ layers.notes :+ ph.note)
    }
  }
}
