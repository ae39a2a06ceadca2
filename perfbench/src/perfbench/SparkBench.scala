package perfbench

import java.io.File
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{Dataset, SQLContext, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}
import repro.core.Ev
import repro.core.ceql.CeqlQuery
import repro.core.engine.Engines
import repro.gen.StreamGen
import repro.spark.{CoreBatch, CoreStreaming, MatchRow}
import scala.collection.mutable

/** The Spark side of the benchmark: `CoreBatch` jobs and `CoreStreaming`
  * micro-batches on `local[cores]`, checked against a single engine.
  */
object SparkBench {

  /** Micro-batch times are summarized per window of this many consecutive batches (see [[Stats.fast]]). */
  val WindowBatches = 4
  val MinWindows = 4
  /** Untimed warm-up windows: at least `MinWarmupWindows` (micro-batch times
    * drift down over the first 8-12 batches while the JIT settles), then
    * until a window's median CPU time is not below `Settled` times the one
    * before, at most `MaxWarmupWindows`.
    */
  val MinWarmupWindows = 4
  val MaxWarmupWindows = 10
  val Settled = 0.95
  /** Start offsets, evenly spaced over the input, of an unkeyed workload's windows. */
  val Segments = 8
  /** Untimed `CoreBatch` jobs after the checked one, before the first timed job. */
  val WarmupJobs = 2
  /** Session starts of a keyed workload, whose `setup_s` they are; the first is cold. */
  val KeyedSetupReps = 9

  def session(o: Opts): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[${o.cores}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", o.cores.toLong)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(o.workDir, "spark-local").getPath)
      .config("spark.sql.streaming.numRecentProgressUpdates", 100000L)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  // ------------------------------------------------------- match digests

  /** Order-independent digest of a set of match rows: their count and summed hashes. */
  final case class Digest(rows: Long, sum: Long) {
    def +(r: MatchRow): Digest = Digest(rows + 1, sum + r.hashCode.toLong * 0x9E3779B97F4A7C15L)
  }
  val Empty = Digest(0, 0)

  /** Digests of the match rows a single engine gives over `events`, per
    * micro-batch of `batchEvents` (the batch that holds the match's last event).
    */
  def expected(q: CeqlQuery, limit: Int, events: Iterator[Ev], batchEvents: Long): Map[Long, Digest] = {
    val engine = Engines.core(q, limit)
    val key: Ev => String = if (q.partitionBy.nonEmpty) Engines.partKeyFn(q.partitionBy) else _ => ""
    val out = mutable.HashMap.empty[Long, Digest]
    events.foreach { ev =>
      engine.onEvent(ev).foreach { ce =>
        val b = ce.end / batchEvents
        out(b) = out.getOrElse(b, Empty) + MatchRow(key(ev), ce.start, ce.end, ce.data.mkString(","))
      }
    }
    out.toMap
  }

  // ----------------------------------------------------------- streaming

  /** A running `CoreStreaming` query whose sink digests each micro-batch's matches. */
  final class Stream(val spark: SparkSession, input: MemoryStream[Ev], query: StreamingQuery, checkpoint: File,
                     val digests: ConcurrentHashMap[Long, Digest]) {
    private var nextBatchId = 0L

    /** Adds one micro-batch and waits for it; returns its wall and CPU time, progress and state delta bytes. */
    def push(evs: Seq[Ev]): Batch = {
      val c0 = Stats.processCpuNanos()
      val t0 = System.nanoTime()
      input.addData(evs)
      query.processAllAvailable()
      val ns = System.nanoTime() - t0
      val cpuNs = Stats.processCpuNanos() - c0
      val id = nextBatchId; nextBatchId += 1
      // An idle trigger reports the next batch id too, without input or state operators.
      val p = query.recentProgress.reverseIterator.find(p => p.batchId == id && p.numInputRows > 0).getOrElse(
        throw new IllegalStateException(s"no progress reported for micro-batch $id"))
      Batch(evs.size, ns, cpuNs, p, deltaBytes(id + 1))
    }

    def batchesRun: Long = nextBatchId

    /** Bytes of the state-store delta files written for state version `v` (batch v - 1). */
    private def deltaBytes(v: Long): Long = {
      def walk(f: File): Long =
        if (f.isDirectory) Option(f.listFiles).toSeq.flatten.map(walk).sum
        else if (f.getName == s"$v.delta") f.length else 0L
      walk(new File(checkpoint, "state"))
    }

    def stopQuery(): Unit = query.stop()
    def stop(): Unit = { query.stop(); spark.stop() }
  }

  final case class Batch(events: Int, ns: Long, cpuNs: Long, progress: StreamingQueryProgress, deltaBytes: Long) {
    def ms: Double = ns / 1e6
    def cpuMs: Double = cpuNs / 1e6
    def stateOp = progress.stateOperators.head
    def duration(k: String): Double = Option(progress.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
  }

  private var streams = 0

  def start(spark: SparkSession, q: CeqlQuery, limit: Int, o: Opts): Stream = {
    import spark.implicits._
    implicit val sqlCtx: SQLContext = spark.sqlContext
    streams += 1
    val ckpt = new File(o.workDir, s"checkpoint-$streams")
    val input = MemoryStream[Ev]
    val digests = new ConcurrentHashMap[Long, Digest]
    val sink: (Dataset[MatchRow], Long) => Unit =
      (ds, id) => digests.put(id, ds.collect().foldLeft(Empty)(_ + _))
    val sq = CoreStreaming.evaluate(input.toDS(), q, limit).writeStream
      .foreachBatch(sink)
      .option("checkpointLocation", ckpt.getPath)
      .start()
    sq.processAllAvailable()
    new Stream(spark, input, sq, ckpt, digests)
  }

  /** Session plus query start, `reps` times, each timed in CPU seconds; the last session and query stay up. */
  def setup(o: Opts, q: CeqlQuery, limit: Int, reps: Int, tracer: Tracer): (Stream, Seq[Double]) = {
    val secs = Seq.newBuilder[Double]
    var s: Stream = null
    for (_ <- 0 until reps) {
      if (s != null) s.stop()
      tracer.span("bench.setup", -1) { root =>
        val c0 = Stats.processCpuNanos()
        val spark = tracer.span("spark.session", root)(_ => session(o))
        s = tracer.span("spark.query_start", root)(_ => start(spark, q, limit, o))
        secs += (Stats.processCpuNanos() - c0) / 1e9
      }
    }
    (s, secs.result())
  }

  /** Warm-up and measured micro-batches, in windows of `WindowBatches`. */
  final case class Streamed(warmup: Seq[Batch], windows: Seq[Seq[Batch]]) {
    def batches: Seq[Batch] = windows.flatten
  }

  /** Windows of `WindowBatches` micro-batches of the workload's `batchEvents`,
    * each checked against the single engine.
    *
    * A keyed workload streams its input (repeated, positions rebased) through
    * one query. An unkeyed one has a single key, and the state of its one
    * engine grows with the stream: the tECS part it keeps reachable outgrows
    * the window until every partial match has died, which happens at random
    * points of a random stream. Each of its measured windows is therefore a
    * fresh query over the input from the next of `Segments` evenly spaced
    * offsets; its warm-up windows share one query, as their state does not matter.
    */
  final class Windows(private var s: Stream, o: Opts, q: CeqlQuery, limit: Int, input: Array[Ev],
                      tracer: Tracer, gate: EngineBench.Gate) {
    private val b = o.workload.batchEvents
    private val fresh = !o.workload.keyed
    private var segment = 0
    private var events = segmentEvents()

    /** The input from the current segment on, positions rebased to 0. */
    private def segmentEvents(): Iterator[Ev] = {
      val off = if (fresh) segment % Segments * (input.length / Segments) else 0
      StreamGen.cycled(input.drop(off) ++ input.take(off), Long.MaxValue)
    }

    def next(measured: Boolean): Seq[Batch] = {
      if (fresh && measured && s.batchesRun > 0) {
        check()
        s.stopQuery()
        s = tracer.span("spark.query_start", -1)(_ => start(s.spark, q, limit, o))
        segment += 1
        events = segmentEvents()
      }
      // The first micro-batch of a query also plans it: untimed.
      if (s.batchesRun == 0) push()
      Seq.fill(WindowBatches)(push())
    }

    private def push(): Batch = {
      val chunk = events.take(b).toVector
      tracer.span("spark.microbatch", -1)(_ => s.push(chunk))
    }

    /** Checks the micro-batches of the current query and stops it. */
    def finish(): Unit = { check(); s.stopQuery() }

    private def check(): Unit = {
      val n = s.batchesRun
      val want = expected(q, limit, segmentEvents().take((n * b).toInt), b)
      val bad = (0L until n).count(i => Option(s.digests.get(i)).getOrElse(Empty) != want.getOrElse(i, Empty))
      gate.attempted += n; gate.failed += bad
      if (bad > 0) gate.notes += s"FAILED: $bad of $n micro-batches differ from the single engine"
    }
  }

  /** Warm-up windows until the batch CPU times settle, then measured windows
    * until `seconds` of batch time (at least `MinWindows`); `afterWindow`
    * runs after each measured window, outside its timing.
    */
  def runStream(ws: Windows, seconds: Double, onMeasureStart: () => Unit = () => (),
                afterWindow: () => Unit = () => ()): Streamed = {
    def median(w: Seq[Batch]): Double = Stats.median(w.map(_.cpuMs))
    val warmup = mutable.ArrayBuffer.empty[Batch]
    var prev = Double.PositiveInfinity
    var settled = false
    while (!settled && warmup.size < MaxWarmupWindows * WindowBatches) {
      val w = ws.next(measured = false)
      warmup ++= w
      settled = warmup.size >= MinWarmupWindows * WindowBatches && median(w) >= Settled * prev
      prev = median(w)
    }
    onMeasureStart()
    val windows = Seq.newBuilder[Seq[Batch]]
    var n = 0; var spent = 0L
    while (n < MinWindows || spent < seconds * 1e9) {
      val w = ws.next(measured = true)
      windows += w; n += 1; spent += w.map(_.ns).sum
      afterWindow()
    }
    ws.finish()
    Streamed(warmup.toSeq, windows.result())
  }

  // --------------------------------------------------------------- the run

  /** What the untraced Spark pass measured. */
  final case class Untraced(setupSecs: Seq[Double], jobSecs: Seq[Double], stream: Streamed)

  /** Session start(s), a checked `CoreBatch` job, then `CoreStreaming`
    * micro-batches for `seconds` with one timed `CoreBatch` job after each
    * measured window, so that both are sampled over the whole run.
    */
  def run(o: Opts, q: CeqlQuery, limit: Int, input: Array[Ev], seconds: Double,
          tracer: Tracer, gate: EngineBench.Gate): Untraced = {
    val wl = o.workload
    val (s, setupSecs) = setup(o, q, limit, if (wl.keyed) KeyedSetupReps else 1, tracer)
    val spark = s.spark
    import spark.implicits._
    try {
      // One checked job and `WarmupJobs` untimed ones, then jobs from the cached input to count(),
      // each timed in CPU seconds.
      val ds = spark.createDataset(spark.sparkContext.parallelize(input.toIndexedSeq, o.cores)).cache()
      ds.count()
      val got = CoreBatch.evaluate(ds, q, limit).collect().foldLeft(Empty)(_ + _)
      val want = expected(q, limit, input.iterator, Long.MaxValue).getOrElse(0L, Empty)
      gate.check(1, got == want, s"CoreBatch found ${got.rows} matches, the single engine ${want.rows}")
      def job(): Double = {
        val c0 = Stats.processCpuNanos(); CoreBatch.evaluate(ds, q, limit).count(); (Stats.processCpuNanos() - c0) / 1e9
      }
      for (_ <- 0 until WarmupJobs) job()
      val jobSecs = mutable.ArrayBuffer.empty[Double]
      val streamed = runStream(new Windows(s, o, q, limit, input, tracer, gate), seconds,
        afterWindow = () => jobSecs += job())
      ds.unpersist()
      Untraced(setupSecs, jobSecs.toSeq, streamed)
    } finally spark.stop()
  }

  /** End-to-end metrics of the Spark pass, all in CPU time: a figure per
    * micro-batch window summarized by [[Stats.fast]]; `batch_job_cpu_s` is the
    * median job, as a job now and then takes some 20% less than the rest,
    * which a low quantile of a few jobs would read.
    */
  def metrics(u: Untraced): Map[String, Metric] = {
    val ws = u.stream.windows
    def overWindows(name: String, unit: String, f: Seq[Batch] => Double) = Metric(name, Stats.fast(ws.map(f)), unit, ws.size)
    val perKey = u.stream.batches.map(b => b.deltaBytes.toDouble / b.stateOp.numRowsUpdated.max(1))
    Seq(
      Metric("events_per_cpu_s", ws.head.map(_.events).sum / Stats.fast(ws.map(_.map(_.cpuNs).sum / 1e9)), "1/s", ws.size),
      Metric("batch_job_cpu_s", Stats.median(u.jobSecs), "s", u.jobSecs.size),
      overWindows("microbatch_cpu_ms_p50", "ms", w => Stats.quantile(w.map(_.cpuMs).toArray, 0.50)),
      overWindows("microbatch_cpu_ms_p90", "ms", w => Stats.quantile(w.map(_.cpuMs).toArray, 0.90)),
      Metric("state_bytes_per_key", Stats.median(perKey), "bytes", perKey.size),
      Metric("setup_s", Stats.median(u.setupSecs), "s", u.setupSecs.size),
    ).map(m => m.name -> m).toMap
  }

  /** Wall-time figures of micro-batch windows, as [[metrics]] gives the CPU-time ones. */
  def wallMetrics(s: Streamed, prefix: String): Seq[Metric] = {
    val ws = s.windows
    def overWindows(name: String, f: Seq[Batch] => Double) = Metric(prefix + name, Stats.fast(ws.map(f)), "ms", ws.size)
    Seq(
      Metric(prefix + "events_per_s", ws.head.map(_.events).sum / Stats.fast(ws.map(_.map(_.ns).sum / 1e9)), "1/s", ws.size),
      overWindows("microbatch_ms_p50", w => Stats.quantile(w.map(_.ms).toArray, 0.50)),
      overWindows("microbatch_ms_p90", w => Stats.quantile(w.map(_.ms).toArray, 0.90)),
    )
  }

  def notes(u: Untraced): Seq[String] = Seq(
    s"spark setup_s (CPU) samples: ${u.setupSecs.map(x => f"$x%.3f").mkString(" ")}; batch_job_cpu_s samples: ${u.jobSecs.map(x => f"$x%.3f").mkString(" ")}",
    s"micro-batch CPU ms, warm-up: ${u.stream.warmup.map(b => f"${b.cpuMs}%.0f").mkString(" ")}",
    s"micro-batch CPU ms, measured: ${u.stream.windows.map(_.map(b => f"${b.cpuMs}%.0f").mkString(" ")).mkString(" | ")}",
    s"micro-batch wall ms, measured: ${u.stream.windows.map(_.map(b => f"${b.ms}%.0f").mkString(" ")).mkString(" | ")}",
    wallMetrics(u.stream, "").map(m => f"${m.name} ${m.value}%.4g ${m.unit}").mkString("wall time (not gated): ", ", ", ""),
  )

  // ----------------------------------------------------------- traced pass

  /** Task-level totals from the listener bus. */
  final class TaskTotals extends SparkListener {
    val tasks, shuffleWriteBytes, gcMs = new AtomicLong
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.incrementAndGet()
      val m = e.taskMetrics
      if (m != null) {
        shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
        gcMs.addAndGet(m.jvmGCTime)
      }
    }
    /** Waits until no task has ended for 300 ms, so the bus has delivered what ran. */
    def quiesce(): (Long, Long, Long) = {
      var last = -1L; var stable = 0
      val deadline = System.nanoTime() + 10000000000L
      while (stable < 3 && System.nanoTime() < deadline) {
        Thread.sleep(100)
        val t = tasks.get()
        if (t == last) stable += 1 else { stable = 0; last = t }
      }
      (tasks.get(), shuffleWriteBytes.get(), gcMs.get())
    }
  }

  /** The traced Spark pass: per-layer metrics of the streaming operator over
    * the same micro-batches as the untraced pass.
    */
  def traced(o: Opts, q: CeqlQuery, limit: Int, input: Array[Ev], seconds: Double, singleEngineEps: Double,
             tracer: Tracer, gate: EngineBench.Gate): Seq[Metric] = {
    val (s, _) = setup(o, q, limit, 1, tracer)
    val totals = new TaskTotals
    s.spark.sparkContext.addSparkListener(totals)
    val (streamed, before, after) = try {
      var before = (0L, 0L, 0L)
      val st = runStream(new Windows(s, o, q, limit, input, tracer, gate), seconds, () => before = totals.quiesce())
      (st, before, totals.quiesce())
    } finally s.spark.stop()
    val batches = streamed.batches
    def med(f: Batch => Double): Double = Stats.median(batches.map(f))
    val n = batches.size
    Seq(
      Metric("spark.add_batch_ms", med(_.duration("addBatch")), "ms", n),
      Metric("spark.wal_commit_ms", med(_.duration("walCommit")), "ms", n),
      Metric("spark.state_update_ms", med(_.stateOp.allUpdatesTimeMs.toDouble), "ms", n),
      Metric("spark.state_commit_ms", med(_.stateOp.commitTimeMs.toDouble), "ms", n),
      Metric("spark.state_rows", med(_.stateOp.numRowsTotal.toDouble), "count", n),
      Metric("spark.state_bytes_per_batch", med(_.deltaBytes.toDouble), "bytes", n),
      Metric("spark.shuffle_write_bytes_per_event",
        (after._2 - before._2).toDouble / batches.map(_.events).sum, "bytes", after._1 - before._1),
      Metric("spark.task_gc_ms_per_batch", (after._3 - before._3).toDouble / n, "ms", after._1 - before._1),
      Metric("spark.single_engine_events_per_s", singleEngineEps, "1/s", 1),
    ) ++ wallMetrics(streamed, "spark.")
  }
}
