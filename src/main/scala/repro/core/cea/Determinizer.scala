package repro.core.cea

import repro.core.Ev
import repro.core.pred.AtomRegistry
import scala.collection.immutable.BitSet
import scala.collection.mutable

/** On-the-fly I/O-determinization of a CEA (§4, §5.4).
  *
  * Det-states are subsets of NFA states (interned to dense ints). For a
  * det-state `p` and an event's atomic-predicate bit vector `v`, the marking
  * successor `Δ(p, v, •)` is the set of NFA states reachable via a satisfied
  * marking transition from any state in `p` (dually for ∘). Both are computed
  * lazily and cached per `(p, v)`, exactly the scheme of §5.4, so the
  * worst-case exponential subset construction is only paid for subsets that
  * actually occur on the stream.
  */
final class Determinizer(val cea: Cea, val reg: AtomRegistry) {

  /** Interned det-states: sorted NFA-state id vectors. */
  private val states  = mutable.ArrayBuffer.empty[Array[Int]]
  private val index   = mutable.HashMap.empty[List[Int], Int]
  private val finals  = mutable.ArrayBuffer.empty[Boolean]
  /** (detState, bitvec) → (markTarget, unmarkTarget); -1 = no transition. */
  private val cache   = mutable.HashMap.empty[(Int, BitSet), (Int, Int)]

  /** Det-state of the singleton {q0}: where fresh runs start each position. */
  val initial: Int = intern(Array(cea.q0))

  private def intern(sortedIds: Array[Int]): Int =
    index.getOrElseUpdate(sortedIds.toList, {
      states += sortedIds
      finals += sortedIds.exists(cea.finals.contains)
      states.size - 1
    })

  def isFinal(p: Int): Boolean = finals(p)

  /** The sorted NFA-state set of det-state `p`: its identity across plans,
    * unlike `p`, whose value depends on the order det-states were discovered.
    */
  def stateSet(p: Int): Array[Int] = states(p).clone()

  /** The det-state of a sorted NFA-state set, interning it if it is new. */
  def detState(sortedIds: Array[Int]): Int = {
    require(sortedIds.nonEmpty && sortedIds.indices.forall(i =>
      sortedIds(i) >= 0 && sortedIds(i) < cea.nStates && (i == 0 || sortedIds(i - 1) < sortedIds(i))),
      s"not a sorted set of NFA states of this plan: ${sortedIds.mkString("{", ",", "}")}")
    intern(sortedIds.clone())
  }

  def numDetStates: Int = states.size
  def cacheSize: Int = cache.size

  /** Bit vector of the event over all interned atomic predicates — evaluated
    * once per event (§5.4).
    */
  def bits(ev: Ev): BitSet = reg.bits(ev)

  /** `(Δ(p, v, •), Δ(p, v, ∘))`, computing and caching on first use. */
  def step(p: Int, v: BitSet): (Int, Int) =
    cache.getOrElseUpdate((p, v), {
      val mark   = mutable.SortedSet.empty[Int]
      val unmark = mutable.SortedSet.empty[Int]
      for (s <- states(p); tr <- cea.bySource(s) if tr.pred.eval(v))
        (if (tr.mark) mark else unmark) += tr.to
      val qm = if (mark.isEmpty) -1 else intern(mark.toArray)
      val qu = if (unmark.isEmpty) -1 else intern(unmark.toArray)
      (qm, qu)
    })
}
