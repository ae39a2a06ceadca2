package repro.core.engine

import repro.core.cea.Determinizer
import repro.core.tecs._
import scala.collection.mutable.ArrayBuffer

/** Bytes that are not a run state this build can read. */
final class RunStateFormatException(msg: String) extends IllegalArgumentException(msg)

/** The run state of one [[CoreEngine]] — what one substream owns (§5.4) —
  * as a compact, versioned binary codec. It holds the active-state table,
  * the reachable part of the tECS and the window clock (the last position
  * seen), and nothing of the plan: the CEA, atom registry and determinizer
  * are rebuilt from the query and shared by every substream.
  *
  * Det-states are written as their sorted NFA-state sets, not their ids:
  * ids depend on the order a plan discovered its det-states, which differs
  * between tasks and across a restart.
  *
  * Format, version 1 (`uv` = unsigned LEB128 varint, `zz` = zigzag varint):
  * {{{
  * byte  version
  * byte  1 if an event was seen, then zz lastIdx
  * uv    nodes, each children-first:
  *         0  uv (lastIdx - pos)  zz (max - pos)     bottom
  *         1  uv (lastIdx - pos)  uv (self - next)   output
  *         2  uv (self - left)    uv (self - right)  union
  * uv    active states, in table order, each:
  *         uv size, uv first NFA state, uv gaps to the next ones
  *         uv list length, uv node index per entry
  * }}}
  * The DAG is flattened iteratively: its longest path grows with the window
  * content, and a recursive walk would overflow the stack.
  *
  * Only the live part is written. Given `horizon`, the window start of the
  * last event, a state, list entry or union branch whose max-start is below
  * it can match no later event — `idx` increases and `ts` does not decrease,
  * so the window start does not move back — and enumeration would skip it
  * (§5.1). Left out, a union stands for its left child, which keeps every
  * node safe and the tECS time-ordered and 3-bounded. Union branches stay
  * reachable in memory long after they expire, so without this the state of
  * a long-lived key would grow with the stream, not with the window.
  */
object RunState {

  val Version: Int = 1

  /** The clock of a run that has seen no event. */
  val NoClock: Long = Long.MinValue

  private final val BottomKind = 0
  private final val OutputKind = 1
  private final val UnionKind = 2

  def encode(det: Determinizer, table: StateTable, lastIdx: Long, horizon: Long): Array[Byte] = {
    val out = new Out
    out.byte(Version)
    if (lastIdx == NoClock) out.byte(0) else { out.byte(1); out.zigzag(lastIdx) }
    val clock = if (lastIdx == NoClock) 0L else lastIdx
    val live = ArrayBuffer.empty[(Int, Seq[Node])]
    // entries after the head have decreasing max-starts, none above the head's
    for (i <- 0 until table.size; ul = table.list(i) if ul.maxStart >= horizon)
      live += ((table.state(i), ul.toSeq.takeWhile(_.max >= horizon)))
    val index = new java.util.IdentityHashMap[Node, Integer]()
    val order = ArrayBuffer.empty[Node]
    for ((_, entries) <- live; n <- entries) flatten(n, horizon, index, order)
    out.uvarint(order.size)
    var i = 0
    while (i < order.size) {
      order(i) match {
        case b: Bottom => out.byte(BottomKind); out.uvarint(clock - b.pos); out.zigzag(b.max - b.pos)
        case o: Output => out.byte(OutputKind); out.uvarint(clock - o.pos); out.uvarint(i - index.get(o.next))
        case u: Union  => out.byte(UnionKind); out.uvarint(i - index.get(u.left)); out.uvarint(i - index.get(u.right))
      }
      i += 1
    }
    out.uvarint(live.size)
    for ((p, entries) <- live) {
      val set = det.stateSet(p)
      out.uvarint(set.length)
      var k = 0
      while (k < set.length) { out.uvarint(if (k == 0) set(0) else set(k) - set(k - 1)); k += 1 }
      out.uvarint(entries.size)
      entries.foreach(n => out.uvarint(index.get(n).intValue))
    }
    out.result()
  }

  /** Decodes `bytes` against `det`, interning any det-state it has not seen;
    * rejects union-lists and unions that are not time-ordered (§5.1, §5.2). */
  def decode(det: Determinizer, bytes: Array[Byte]): (StateTable, Long) = {
    val in = new In(bytes)
    val version = in.byte()
    if (version != Version)
      throw new RunStateFormatException(s"run state has format version $version; this build reads version $Version")
    val lastIdx = in.byte() match {
      case 0 => NoClock
      case 1 => in.zigzag()
      case f => throw in.corrupt(s"clock flag $f")
    }
    val clock = if (lastIdx == NoClock) 0L else lastIdx
    val nodes = new Array[Node](in.count("nodes"))
    if (nodes.nonEmpty && lastIdx == NoClock) throw in.corrupt("tECS nodes without a clock")
    var i = 0
    while (i < nodes.length) {
      def back(): Node = {
        val d = in.uvarint()
        if (d < 1 || d > i) throw in.corrupt(s"node $i refers $d nodes back")
        nodes(i - d.toInt)
      }
      nodes(i) = in.byte() match {
        case BottomKind => val pos = clock - in.uvarint(); new Bottom(pos, pos + in.zigzag())
        case OutputKind => val pos = clock - in.uvarint(); new Output(pos, back())
        case UnionKind  =>
          val l = back(); val r = back()
          if (r.max > l.max) throw in.corrupt(s"union node $i: right max-start ${r.max} above left ${l.max}")
          new Union(l, r)
        case k          => throw in.corrupt(s"node kind $k")
      }
      i += 1
    }
    val table = new StateTable
    var s = in.count("active states")
    while (s > 0) {
      val set = new Array[Int](in.count("NFA states"))
      var k = 0
      while (k < set.length) { set(k) = (if (k == 0) 0 else set(k - 1)) + in.int("NFA state"); k += 1 }
      val p = in.checked(det.detState(set))
      val len = in.count("union-list entries")
      if (len == 0 || table.get(p) != null) throw in.corrupt(s"active state ${set.mkString("{", ",", "}")}")
      val entries = Seq.fill(len) {
        val n = in.int("node index")
        if (n >= nodes.length) throw in.corrupt(s"node index $n of ${nodes.length}")
        nodes(n)
      }
      table.append(p, in.checked(UnionList.of(entries)))
      s -= 1
    }
    if (!in.atEnd) throw in.corrupt("trailing bytes")
    (table, lastIdx)
  }

  /** Appends the live nodes under `root` not yet in `index`, children first;
    * a union whose right branch is below `horizon` gets its left child's index.
    */
  private def flatten(root: Node, horizon: Long, index: java.util.IdentityHashMap[Node, Integer],
                      order: ArrayBuffer[Node]): Unit = {
    // The stack is a path down the DAG, so no node is on it twice.
    val stack = ArrayBuffer(root)
    def pending(n: Node): Boolean = !index.containsKey(n) && { stack += n; true }
    while (stack.nonEmpty) {
      val n = stack.last
      val pushed = n match {
        case u: Union  => pending(u.left) || (u.right.max >= horizon && pending(u.right))
        case o: Output => pending(o.next)
        case _: Bottom => false
      }
      if (!pushed) {
        stack.remove(stack.size - 1)
        if (!index.containsKey(n)) n match {
          case u: Union if u.right.max < horizon => index.put(u, index.get(u.left))
          case _ => index.put(n, order.size); order += n
        }
      }
    }
  }

  private final class Out {
    private var buf = new Array[Byte](64)
    private var n = 0
    def byte(b: Int): Unit = {
      if (n == buf.length) buf = java.util.Arrays.copyOf(buf, n * 2)
      buf(n) = b.toByte; n += 1
    }
    def uvarint(v: Long): Unit = {
      var x = v
      while ((x & ~0x7FL) != 0) { byte(((x & 0x7F) | 0x80).toInt); x >>>= 7 }
      byte(x.toInt)
    }
    def zigzag(v: Long): Unit = uvarint((v << 1) ^ (v >> 63))
    def result(): Array[Byte] = java.util.Arrays.copyOf(buf, n)
  }

  private final class In(b: Array[Byte]) {
    private var i = 0
    def atEnd: Boolean = i == b.length
    def corrupt(what: String) = new RunStateFormatException(s"run state corrupt at byte $i of ${b.length}: $what")
    /** `a`, with a rejected argument reported as corrupt input. */
    def checked[A](a: => A): A = try a catch { case e: IllegalArgumentException => throw corrupt(e.getMessage) }
    def byte(): Int = {
      if (i >= b.length) throw new RunStateFormatException(s"run state truncated: ${b.length} bytes")
      val v = b(i) & 0xFF; i += 1; v
    }
    def uvarint(): Long = {
      var r = 0L; var shift = 0; var v = 0x80
      while ((v & 0x80) != 0) {
        if (shift > 63) throw corrupt("varint too long")
        v = byte(); r |= (v & 0x7FL) << shift; shift += 7
      }
      r
    }
    def zigzag(): Long = { val v = uvarint(); (v >>> 1) ^ -(v & 1) }
    def int(what: String): Int = {
      val v = uvarint()
      if (v < 0 || v > Int.MaxValue) throw corrupt(s"$what $v")
      v.toInt
    }
    /** A count of items that take at least one byte each, so it cannot exceed the bytes left. */
    def count(what: String): Int = {
      val v = int(what)
      if (v > b.length - i) throw new RunStateFormatException(s"run state truncated: ${b.length} bytes, $v $what to read")
      v
    }
  }
}
