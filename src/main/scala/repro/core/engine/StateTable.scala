package repro.core.engine

import repro.core.tecs.UnionList

/** One buffer of [[CoreEngine]]'s active-state table, ordered-keys(T) of
  * Algorithm 1: the union-list of each active det-state, indexed by det-state
  * id, and the active det-states in insertion order. Both arrays grow on
  * demand from empty, so a run that never becomes active allocates none.
  */
final class StateTable {
  private var lists = StateTable.NoLists
  private var order = Array.emptyIntArray
  private var n = 0

  def size: Int = n
  def isEmpty: Boolean = n == 0

  /** The `i`-th active det-state in insertion order. */
  def state(i: Int): Int = order(i)
  /** The union-list of the `i`-th active det-state. */
  def list(i: Int): UnionList = lists(order(i))

  /** The union-list of det-state `p`, or null if `p` is not active. */
  def get(p: Int): UnionList = if (p < lists.length) lists(p) else null

  /** Appends det-state `p`, which is not active, with `ul`. */
  def append(p: Int, ul: UnionList): Unit = {
    if (p >= lists.length) lists = java.util.Arrays.copyOf(lists, math.max(p + 1, 2 * lists.length))
    if (n == order.length) order = java.util.Arrays.copyOf(order, math.max(4, 2 * n))
    lists(p) = ul; order(n) = p; n += 1
  }

  /** Replaces the union-list of det-state `p`, which is active, keeping its place in the order. */
  def replace(p: Int, ul: UnionList): Unit = lists(p) = ul

  def clear(): Unit = {
    var i = 0
    while (i < n) { lists(order(i)) = null; i += 1 }
    n = 0
  }
}

object StateTable {
  private val NoLists = new Array[UnionList](0)
}
