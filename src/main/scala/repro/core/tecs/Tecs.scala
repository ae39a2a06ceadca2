package repro.core.tecs

import scala.collection.mutable.ArrayBuffer

/** Nodes of a timed Enumerable Compact Set (§5.1).
  *
  * Nodes are plain JVM objects linked by strong references, not the paper's
  * weak references (§5.4). The engine drops expired union-list entries and
  * active states, but a union keeps its right branch reachable after that
  * branch leaves the window: a long-lived run can hold thousands of expired
  * nodes whose live part encodes in a few hundred bytes. Only the run-state
  * codec ([[repro.core.engine.RunState]]) trims them, when it encodes.
  *
  * `max` is the maximum-start of the node: the largest start *value* (stream
  * position for count windows, timestamp for time windows) over all open
  * complex events the node represents. It is stored on the node so it is
  * O(1) to read (time-ordering, §5.1).
  */
sealed abstract class Node {
  def max: Long
}

/** Bottom node: start of a run. `pos` is the start position, `max` the start
  * value used for window comparisons.
  */
final class Bottom(val pos: Long, val max: Long) extends Node

/** Output node: position `pos` is part of the complex event's data. */
final class Output(val pos: Long, val next: Node) extends Node {
  val max: Long = next.max
}

/** Union node: represents `[[left]] ∪ [[right]]`, with
  * `max(left) >= max(right)` (time-ordering).
  */
final class Union(val left: Node, val right: Node) extends Node {
  val max: Long = left.max
}

/** The three tECS construction methods of §5.2 plus the union gadgets of
  * Fig 5. All methods take and return *safe* nodes and preserve
  * time-ordering and 3-boundedness.
  */
object Tecs {

  def newBottom(pos: Long, startValue: Long): Bottom = new Bottom(pos, startValue)

  def extend(n: Node, pos: Long): Output = new Output(pos, n)

  /** `union(n1, n2)` — requires n1, n2 safe and max(n1) == max(n2).
    * Implements the four gadgets of Fig 5 (a)–(d).
    */
  def union(n1: Node, n2: Node): Node = {
    require(n1.max == n2.max, s"union requires equal max-start (${n1.max} vs ${n2.max})")
    (n1, n2) match {
      case (u1: Union, u2: Union) =>
        val (l1, r1) = (u1.left, u1.right)
        val (l2, r2) = (u2.left, u2.right)
        if (r1.max >= r2.max) {
          // Fig 5(c): u = l1 ∪ (l2 ∪ (r1 ∪ r2))
          new Union(l1, new Union(l2, new Union(r1, r2)))
        } else {
          // Fig 5(d): u = l1 ∪ (l2 ∪ (r2 ∪ r1))
          new Union(l1, new Union(l2, new Union(r2, r1)))
        }
      case (_: Union, _) =>
        // Fig 5(b): n2 is non-union → it becomes the left child
        new Union(n2, n1)
      case _ =>
        // Fig 5(a): n1 non-union
        new Union(n1, n2)
    }
  }

  // ----------------------------------------------------- structural checks
  // Used by tests to assert the §5.1 invariants; not on the hot path.

  /** (Left) output-depth: 0 for non-union, odepth(left)+1 for union. */
  def odepth(n: Node): Int = n match {
    case u: Union => odepth(u.left) + 1
    case _        => 0
  }

  /** A node is safe if non-union, or odepth = 1 and odepth(right) <= 2 (§5.2). */
  def isSafe(n: Node): Boolean = n match {
    case u: Union => odepth(u) == 1 && odepth(u.right) <= 2
    case _        => true
  }

  /** Checks time-ordering and k-boundedness over the whole DAG under `n`. */
  def checkInvariants(n: Node, k: Int = 3): Unit = {
    val seen = new java.util.IdentityHashMap[Node, java.lang.Boolean]()
    def go(m: Node): Unit = if (!seen.containsKey(m)) {
      seen.put(m, true)
      require(odepth(m) <= k, s"odepth ${odepth(m)} > $k")
      m match {
        case u: Union =>
          require(u.left.max >= u.right.max, "not time-ordered")
          require(u.max == u.left.max, "wrong max on union")
          go(u.left); go(u.right)
        case o: Output =>
          require(o.max == o.next.max, "wrong max on output")
          go(o.next)
        case b: Bottom => ()
      }
    }
    go(n)
  }

  /** All open complex events `(start, D)` under `n` — exponential; tests only. */
  def denotation(n: Node): List[(Long, List[Long])] = n match {
    case b: Bottom => List((b.pos, Nil))
    case o: Output => denotation(o.next).map { case (s, d) => (s, o.pos :: d) }
    case u: Union  => denotation(u.left) ++ denotation(u.right)
  }
}

/** A union-list (§5.2): a non-empty sequence of safe nodes, head non-union,
  * sorted strictly decreasing by max-start from index 1, with
  * `max(head) >= max(n_i)` for all i.
  *
  * Mutable, as in the paper; `insert` also mutates the underlying tECS via
  * `Tecs.union`.
  */
final class UnionList private (private val nodes: ArrayBuffer[Node]) {

  def head: Node = nodes(0)
  def size: Int = nodes.size
  def maxStart: Long = nodes(0).max
  def toSeq: Seq[Node] = nodes.toSeq

  /** `insert(ul, n)` of §5.2; requires max(n) <= max(head). */
  def insert(n: Node): Unit = {
    require(n.max <= maxStart, s"insert requires max(n)=${n.max} <= max(head)=$maxStart")
    var i = 1
    while (i < nodes.size && nodes(i).max > n.max) i += 1
    if (i < nodes.size && nodes(i).max == n.max) nodes(i) = Tecs.union(nodes(i), n)
    else nodes.insert(i, n) // covers both the max(n)=max(head) → position 1 case and the sorted slot
  }

  /** `merge(ul)` of §5.2 / Fig 5(e): right-deep chain of unions; safe output. */
  def merge(): Node = {
    var u = nodes(nodes.size - 1)
    var i = nodes.size - 2
    while (i >= 0) { u = new Union(nodes(i), u); i -= 1 }
    if (nodes.size == 1) nodes(0) else u
  }

  /** Drops trailing entries whose max-start is below `tau` (expired under the
    * window) — sortedness makes this O(#dropped). Engine-side memory
    * management (§5.4); the head is never dropped here (if the head itself is
    * expired the whole active state is dropped by the engine).
    */
  def pruneExpired(tau: Long): Unit = {
    while (nodes.size > 1 && nodes(nodes.size - 1).max < tau) nodes.remove(nodes.size - 1)
  }
}

object UnionList {
  /** `new-ulist(n)` — n must be non-union (§5.2). */
  def single(n: Node): UnionList = {
    require(!n.isInstanceOf[Union], "new-ulist requires a non-union node")
    new UnionList(new ArrayBuffer[Node](2) += n)
  }
  /** The union-list of `ns`, in order (decoding only); throws
    * `IllegalArgumentException` unless `ns` has a union-list's shape. */
  def of(ns: Seq[Node]): UnionList = {
    val ul = single(ns.head)
    for (n <- ns.tail) {
      val bound = if (ul.size == 1) ul.maxStart else ul.nodes.last.max - 1
      require(n.max <= bound, s"union-list entry ${ul.size} has max-start ${n.max}, above $bound")
      ul.nodes += n
    }
    ul
  }
}
