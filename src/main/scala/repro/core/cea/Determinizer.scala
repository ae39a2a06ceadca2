package repro.core.cea

import repro.core.Ev
import repro.core.pred.AtomRegistry
import scala.collection.immutable.BitSet
import scala.collection.mutable

/** On-the-fly I/O-determinization of a CEA (§4, §5.4).
  *
  * Det-states are subsets of NFA states (interned to dense ints). For a
  * det-state `p` and an event's atomic-predicate mask `v`, the marking
  * successor `Δ(p, v, •)` is the set of NFA states reachable via a satisfied
  * marking transition from any state in `p` (dually for ∘). Both are computed
  * lazily and cached per `(p, v)`, exactly the scheme of §5.4, so the
  * worst-case exponential subset construction is only paid for subsets that
  * actually occur on the stream.
  *
  * The cache is an array per det-state indexed by letter: [[letter]] interns
  * each distinct mask to a dense id once per event, and [[step]] reads both
  * targets of `(p, letter)` as one packed `Long` ([[Determinizer.mark]],
  * [[Determinizer.unmark]]). Rows and the letter table grow as det-states and
  * masks are discovered.
  */
final class Determinizer(val cea: Cea, val reg: AtomRegistry) {
  import Determinizer._

  /** Interned det-states: sorted NFA-state id vectors. */
  private val states  = mutable.ArrayBuffer.empty[Array[Int]]
  private val index   = mutable.HashMap.empty[List[Int], Int]
  private val finals  = mutable.ArrayBuffer.empty[Boolean]

  /** Longs per mask. */
  private val words = reg.words
  /** The mask of the event [[letter]] was last called on. */
  private val scratch = new Array[Long](words)
  /** Letter `l`'s mask is `masks(l * words until (l + 1) * words)`. */
  private var masks = new Array[Long](0)
  private var letters = 0
  /** Open addressing over the masks: letter + 1 per slot, 0 = empty. */
  private var slots = new Array[Int](0)

  /** `rows(p)(letter)` is the packed step of `(p, letter)`, [[Unknown]] until computed. */
  private var rows = new Array[Array[Long]](0)
  private var computed = 0

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
  /** The (det-state, mask) pairs whose step has been computed. */
  def cacheSize: Int = computed

  /** The letter of `ev`: its mask over all interned atomic predicates —
    * evaluated once per event (§5.4) — as a dense id.
    */
  def letter(ev: Ev): Int = letterOf(reg.mask(ev, scratch))

  /** `(Δ(p, v, •), Δ(p, v, ∘))` for the mask `v` of `letter`, packed;
    * computed and cached on first use. */
  def step(p: Int, letter: Int): Long = {
    if (p < rows.length) {
      val row = rows(p)
      if (row != null && letter < row.length) {
        val s = row(letter)
        if (s != Unknown) return s
      }
    }
    compute(p, letter)
  }

  /** The mask of `ev` as a `BitSet` (for callers that inspect it). */
  def bits(ev: Ev): BitSet = BitSet.fromBitMaskNoCopy(reg.mask(ev))

  /** [[step]] on a `BitSet` mask, unpacked. */
  def step(p: Int, v: BitSet): (Int, Int) = {
    val s = step(p, letterOf(java.util.Arrays.copyOf(v.toBitMask, words))); (mark(s), unmark(s))
  }

  private def compute(p: Int, letter: Int): Long = {
    val v = java.util.Arrays.copyOfRange(masks, letter * words, (letter + 1) * words)
    val mark   = mutable.SortedSet.empty[Int]
    val unmark = mutable.SortedSet.empty[Int]
    for (s <- states(p); tr <- cea.bySource(s) if tr.pred.eval(v))
      (if (tr.mark) mark else unmark) += tr.to
    val qm = if (mark.isEmpty) -1 else intern(mark.toArray)
    val qu = if (unmark.isEmpty) -1 else intern(unmark.toArray)
    val packed = pack(qm, qu)
    if (p >= rows.length) rows = java.util.Arrays.copyOf(rows, math.max(states.size, 2 * rows.length))
    var row = rows(p)
    if (row == null || letter >= row.length) {
      val grown = new Array[Long](math.max(letters, if (row == null) 4 else 2 * row.length))
      java.util.Arrays.fill(grown, Unknown)
      if (row != null) System.arraycopy(row, 0, grown, 0, row.length)
      row = grown; rows(p) = row
    }
    row(letter) = packed
    computed += 1
    packed
  }

  private def letterOf(m: Array[Long]): Int = {
    if (2 * (letters + 1) > slots.length) rehash(math.max(16, 2 * slots.length))
    val mask = slots.length - 1
    var s = hash(m, 0) & mask
    while (slots(s) != 0) {
      val l = slots(s) - 1
      if (java.util.Arrays.equals(masks, l * words, (l + 1) * words, m, 0, words)) return l
      s = (s + 1) & mask
    }
    if ((letters + 1) * words > masks.length)
      masks = java.util.Arrays.copyOf(masks, math.max(16 * words, 2 * masks.length))
    System.arraycopy(m, 0, masks, letters * words, words)
    letters += 1
    slots(s) = letters
    letters - 1
  }

  /** Hash of the mask `m(from until from + words)`. */
  private def hash(m: Array[Long], from: Int): Int = {
    var h = 0L
    var i = 0
    while (i < words) { h = (h ^ m(from + i)) * 0x9E3779B97F4A7C15L; i += 1 }
    (h ^ (h >>> 32)).toInt
  }

  private def rehash(size: Int): Unit = {
    slots = new Array[Int](size)
    var l = 0
    while (l < letters) {
      var s = hash(masks, l * words) & (size - 1)
      while (slots(s) != 0) s = (s + 1) & (size - 1)
      slots(s) = l + 1
      l += 1
    }
  }
}

object Determinizer {
  /** The packed step with neither a marking nor an unmarking target. */
  final val NoStep: Long = pack(-1, -1)
  /** A step not computed yet: no packed pair has a marking target below -1. */
  private final val Unknown: Long = Long.MinValue

  private def pack(mark: Int, unmark: Int): Long = (mark.toLong << 32) | (unmark & 0xFFFFFFFFL)
  /** The marking target `Δ(p, v, •)` of a packed step; -1 = none. */
  def mark(step: Long): Int = (step >> 32).toInt
  /** The unmarking target `Δ(p, v, ∘)` of a packed step; -1 = none. */
  def unmark(step: Long): Int = step.toInt
}
