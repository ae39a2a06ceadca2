package repro.core.pred

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.col
import repro.core.Ev
import scala.annotation.switch
import scala.collection.mutable

/** Atomic (unary) predicates over single events (§3 "Predicates").
  *
  * These are pure data — no closures — so compiled automata are serializable
  * and predicates can be interned and evaluated once per event into a bit
  * vector (the §5.4 optimization). Each atom resolves its attribute
  * ([[Attr.field]]) and operator ([[Cmp.code]]) when it is constructed, so a
  * bad one throws there, naming it; its one [[eval]] reads the resolved codes:
  * a string operand makes it an equality on the attribute's [[Attr.strAt]]
  * rendering, otherwise it compares the attribute's number. Atoms are equal,
  * and interned, by their case-class fields.
  */
sealed abstract class Atom(field: Int, op: Int, num: Double, str: String) extends Serializable {
  final def eval(ev: Ev): Boolean =
    if (str ne null) Attr.strAt(ev, field) == str else Cmp.test(Attr.numAt(ev, field), op, num)
}

/** `t(type) = tpe` */
final case class TypeIs(tpe: String) extends Atom(Attr.Type, 0, 0.0, tpe)

/** String-attribute equality, e.g. `name = 'MSFT'`; a number compares by its `toString`. */
final case class StrEq(attr: String, value: String) extends Atom(Attr.field(attr), 0, 0.0, value)

/** Numeric comparison, e.g. `price > 26.0`. Ops: < <= > >= = != */
final case class NumCmp(attr: String, op: String, value: Double)
    extends Atom(Attr.numField(attr), Cmp.code(op), value, null)

/** The comparison operators of [[NumCmp]], as codes resolved once. */
object Cmp {
  final val Lt = 0; final val Le = 1; final val Gt = 2; final val Ge = 3; final val Eq = 4; final val Ne = 5

  def code(op: String): Int = op match {
    case "<"  => Lt
    case "<=" => Le
    case ">"  => Gt
    case ">=" => Ge
    case "="  => Eq
    case "!=" => Ne
    case other => throw new IllegalArgumentException(s"bad op $other")
  }

  def test(x: Double, op: Int, value: Double): Boolean = (op: @switch) match {
    case Lt => x < value
    case Le => x <= value
    case Gt => x > value
    case Ge => x >= value
    case Eq => x == value
    case _  => x != value
  }
}

/** The attributes of an [[Ev]], each named once by its field code ([[field]]):
  * predicates, partition-by keys and column lookups read the codes.
  */
object Attr {
  final val Name = 0; final val Type = 1; final val Price = 2; final val Volume = 3; final val Ts = 4; final val Idx = 5

  /** The field code of `attr`; throws, naming it, for an attribute `Ev` lacks. */
  def field(attr: String): Int = attr match {
    case "name"              => Name
    case "type"              => Type
    case "price"             => Price
    case "volume"            => Volume
    case "ts" | "stock_time" => Ts
    case "idx"               => Idx
    case other => throw new IllegalArgumentException(s"unknown attribute $other")
  }

  /** [[field]] of a numeric attribute, for [[numAt]]. */
  def numField(attr: String): Int = {
    val f = field(attr)
    if (f < Price) throw new IllegalArgumentException(s"attribute $attr is not numeric")
    f
  }

  private val columns = Array("name", "etype", "price", "volume", "ts", "idx")

  /** The `Dataset[Ev]` column of `attr`, with the value [[str]] renders:
    * positions and times become doubles, so events whose key strings are
    * equal have equal columns and hash to the same Spark partition. */
  def column(attr: String): Column = {
    val f = field(attr)
    if (f >= Ts) col(columns(f)).cast("double") else col(columns(f))
  }

  def str(ev: Ev, attr: String): String = strAt(ev, field(attr))

  /** Field `f` of `ev` as a string: the event's own string, or a number's `toString`. */
  def strAt(ev: Ev, f: Int): String = (f: @switch) match {
    case Name => ev.name
    case Type => ev.etype
    case _    => numAt(ev, f).toString
  }

  /** Numeric field `f` ([[numField]]) of `ev`. */
  def numAt(ev: Ev, f: Int): Double = (f: @switch) match {
    case Price  => ev.price
    case Volume => ev.volume
    case Ts     => ev.ts.toDouble
    case _      => ev.idx.toDouble
  }

  /** The value of `attr` as a run key, with its field resolved once: the
    * event's own string, or a number's `doubleToLongBits`. Two events have
    * equal keys exactly when their [[str]] renderings are equal: `0.0` and
    * `-0.0` differ, and every NaN is one key.
    */
  def key(attr: String): Ev => AnyRef = {
    val f = field(attr)
    if (f < Price) strAt(_, f)
    else ev => java.lang.Long.valueOf(java.lang.Double.doubleToLongBits(numAt(ev, f)))
  }
}

/** Boolean combination over interned atom indices — the form CEA transitions
  * carry, evaluated against an event's mask ([[AtomRegistry.mask]]).
  */
sealed trait PredExpr extends Serializable {
  def eval(mask: Array[Long]): Boolean = this match {
    case PTrue        => true
    case PFalse       => false
    case PAtom(i)     => AtomRegistry.has(mask, i)
    case PAnd(l, r)   => l.eval(mask) && r.eval(mask)
    case POr(l, r)    => l.eval(mask) || r.eval(mask)
    case PNot(p)      => !p.eval(mask)
  }
}
case object PTrue                            extends PredExpr
case object PFalse                           extends PredExpr
final case class PAtom(idx: Int)             extends PredExpr
final case class PAnd(l: PredExpr, r: PredExpr) extends PredExpr
final case class POr(l: PredExpr, r: PredExpr)  extends PredExpr
final case class PNot(p: PredExpr)           extends PredExpr

/** Interns atomic predicates to dense indices; evaluates each event into a
  * mask of [[words]] `Long`s, bit `i % 64` of word `i / 64` set when atom `i`
  * holds: one word up to 64 atoms, more beyond that.
  *
  * One registry per compiled query. The engine calls [[mask]] once per event
  * (each atomic predicate evaluated exactly once — §5.4).
  */
final class AtomRegistry extends Serializable {
  private val atoms = mutable.ArrayBuffer.empty[Atom]
  private val index = mutable.HashMap.empty[Atom, Int]

  def intern(a: Atom): Int = index.getOrElseUpdate(a, { atoms += a; atoms.size - 1 })

  def size: Int = atoms.size

  def atom(i: Int): Atom = atoms(i)

  /** `Long`s in a mask: one per 64 atoms, at least one. */
  def words: Int = math.max(1, (atoms.size + 63) >>> 6)

  /** Writes the mask of `ev` into `out`, which has [[words]] words, and returns it. */
  def mask(ev: Ev, out: Array[Long]): Array[Long] = {
    java.util.Arrays.fill(out, 0L)
    var i = 0
    while (i < atoms.length) {
      if (atoms(i).eval(ev)) out(i >>> 6) |= 1L << (i & 63)
      i += 1
    }
    out
  }

  /** The mask of `ev` in a new array. */
  def mask(ev: Ev): Array[Long] = mask(ev, new Array[Long](words))
}

object AtomRegistry {
  /** Whether bit `i` of `mask` is set. */
  def has(mask: Array[Long], i: Int): Boolean = (mask(i >>> 6) & (1L << (i & 63))) != 0
}
