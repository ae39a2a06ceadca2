package perfbench

import java.io.{BufferedWriter, FileWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced pass.
  *
  * A span is (name, start, end, parent, count). Its layer is the name up to
  * the first '.', which is the repo module the call belongs to (`ceql`,
  * `cea`, `pred`, `engine`, `tecs`, `spark`) or `bench` for the benchmark's
  * own loop. `count` is how many calls of the named operation the span covers.
  *
  * The benchmark can only time calls into public functions, so the work that
  * `CoreEngine.onEvent` does inside itself (predicate bits, determinizer
  * steps, enumeration) is measured by replaying the same calls right after
  * it. Those replay spans are recorded as children of the `engine.onEvent`
  * span they were done for, so they are subtracted from its self time even
  * though they lie after its interval: that is how their work is attributed
  * to their own layers.
  *
  * A disabled tracer records nothing and returns -1 from every call.
  */
final class Tracer(val enabled: Boolean) {
  private val names  = mutable.ArrayBuffer.empty[String]
  private val nameId = mutable.HashMap.empty[String, Int]
  private val name   = new LongBuf
  private val parent = new LongBuf
  private val count  = new LongBuf
  private val start  = new LongBuf
  private val end    = new LongBuf

  private def intern(n: String): Int = nameId.getOrElseUpdate(n, { names += n; names.size - 1 })

  /** Records a finished span; returns its id. */
  def record(n: String, parentId: Int, t0: Long, t1: Long, calls: Int = 1): Int =
    if (!enabled) -1
    else {
      name += intern(n); parent += parentId; count += calls; start += t0; end += t1
      name.size - 1
    }

  /** Opens a span whose end is set by [[close]]. */
  def open(n: String, parentId: Int): Int = record(n, parentId, System.nanoTime(), 0L)

  def close(id: Int): Unit = if (id >= 0) end.set(id, System.nanoTime())

  def span[T](n: String, parentId: Int)(body: Int => T): T = {
    val id = open(n, parentId)
    try body(id) finally close(id)
  }

  def size: Int = name.size

  private def dur(i: Int): Long = end(i) - start(i)

  /** Total duration and call count of the spans named `n`. */
  def totals(n: String): (Long, Long) = {
    val id = nameId.getOrElse(n, -1)
    var d = 0L; var c = 0L; var i = 0
    while (i < size) { if (name(i) == id) { d += dur(i); c += count(i) }; i += 1 }
    (d, c)
  }

  /** Number of spans named `n`. */
  def spans(n: String): Int = {
    val id = nameId.getOrElse(n, -1)
    var k = 0; var i = 0
    while (i < size) { if (name(i) == id) k += 1; i += 1 }
    k
  }

  /** Self time in ns per layer: each span's duration minus its children's. */
  def selfNanosByLayer: Map[String, Long] = {
    val self = Array.tabulate(size)(dur)
    var i = 0
    while (i < size) { if (parent(i) >= 0) self(parent(i).toInt) -= dur(i); i += 1 }
    (0 until size).groupMapReduce(k => names(name(k).toInt).takeWhile(_ != '.'))(self(_))(_ + _)
  }

  /** Writes every span as CSV: id,parent,name,start_ns,end_ns,count. */
  def write(path: String): Unit = {
    val w = new BufferedWriter(new FileWriter(path))
    try {
      w.write("id,parent,name,start_ns,end_ns,count\n")
      var i = 0
      while (i < size) {
        w.write(s"$i,${parent(i)},${names(name(i).toInt)},${start(i)},${end(i)},${count(i)}\n"); i += 1
      }
    } finally w.close()
  }
}
