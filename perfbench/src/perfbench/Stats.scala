package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** A growable buffer of longs: samples are recorded in hot loops, so no boxing. */
final class LongBuf(initial: Int = 1024) {
  private var a = new Array[Long](initial)
  private var n = 0
  def +=(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = x; n += 1
  }
  def apply(i: Int): Long = a(i)
  def set(i: Int, x: Long): Unit = a(i) = x
  def size: Int = n
  def toDoubles: Array[Double] = Array.tabulate(n)(i => a(i).toDouble)
}

object Stats {

  /** Quantile `p` in [0, 1] of `xs`: the mean of the order statistics within
    * half a percentile of rank `p`, so that a timer's ns granularity does not
    * make the figure jump between neighbouring integers.
    */
  def quantile(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val last = s.length - 1
    val lo = math.max(0, math.floor((p - 0.005) * last).toInt)
    val hi = math.min(last, math.max(lo, math.ceil((p + 0.005) * last).toInt))
    var sum = 0.0; var i = lo
    while (i <= hi) { sum += s(i); i += 1 }
    sum / (hi - lo + 1)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** How a run summarizes a time measured once per window (an engine trial
    * or a group of consecutive micro-batches): the low quantile
    * `FastQ` over the windows. A shared host runs slow spells, up to ~1.6x
    * slower, of seconds to tens of seconds. A low quantile over many short
    * windows spread over the run reads the fast mode whatever share of the
    * run was slow, where a mean or median moves with that share. A change
    * that slows every window still moves it.
    */
  val FastQ = 0.1
  def fast(xs: Seq[Double]): Double = quantile(xs.toArray, FastQ)

  /** `num / den`, or 0 when there is nothing to divide by (e.g. ns per output with no outputs). */
  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den

  /** CPU time used so far by every thread of this JVM (10 ms steps). CPU time
    * leaves out the time the host runs other guests on this machine's vCPUs
    * (steal) and the time other processes hold them, which wall time counts.
    */
  def processCpuNanos(): Long =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** CPU time used so far by the calling thread (ns steps). */
  def threadCpuNanos(): Long = ManagementFactory.getThreadMXBean.getCurrentThreadCpuTime

  /** Bytes allocated so far by the calling thread. */
  def threadAllocatedBytes(): Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
      .getCurrentThreadAllocatedBytes

  /** Milliseconds spent in garbage collection so far, over all collectors. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Cost of one `System.nanoTime()` read, subtracted from spans around very short calls. */
  lazy val timerNs: Double = {
    val d = new Array[Double](20001)
    var i = 0
    while (i < d.length) { val a = System.nanoTime(); d(i) = (System.nanoTime() - a).toDouble; i += 1 }
    quantile(d, 0.5)
  }
}

/** Wall time of each phase of a run, printed as a note. */
final class Phases {
  private val done = scala.collection.mutable.ArrayBuffer.empty[String]
  def apply[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    val r = body
    done += f"$name ${(System.nanoTime() - t0) / 1e9}%.1f s"
    r
  }
  def note: String = done.mkString("phases: ", ", ", "")
}

/** One reported number: `samples` is how many measurements it summarizes. */
final case class Metric(name: String, value: Double, unit: String, samples: Long)

/** What a workload run reports: correctness counts plus the metrics of its pass. */
final case class Result(attempted: Long, failed: Long, metrics: Seq[Metric], notes: Seq[String]) {

  def json: String = {
    def num(v: Double): String = {
      require(!v.isNaN && !v.isInfinite, s"non-finite metric value $v")
      java.lang.Double.toString(v)
    }
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  def table: Seq[String] = {
    val w = (metrics.map(_.name.length) :+ 12).max
    metrics.map(m => s"  %-${w}s %16.6g %-6s n=%d".format(m.name, m.value, m.unit, m.samples)) :+
      s"  %-${w}s %16.6g %-6s attempted=%d failed=%d".format(
        "failed_share", Stats.ratio(failed.toDouble, attempted.toDouble), "1", attempted, failed)
  }
}
