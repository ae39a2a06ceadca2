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
  * vector (the §5.4 optimization).
  */
sealed trait Atom extends Serializable {
  def eval(ev: Ev): Boolean
}

/** `t(type) = tpe` */
final case class TypeIs(tpe: String) extends Atom {
  def eval(ev: Ev): Boolean = ev.etype == tpe
}

/** String-attribute equality, e.g. `name = 'MSFT'`. */
final case class StrEq(attr: String, value: String) extends Atom {
  def eval(ev: Ev): Boolean = Attr.str(ev, attr) == value
}

/** Numeric comparison, e.g. `price > 26.0`. Ops: < <= > >= = != */
final case class NumCmp(attr: String, op: String, value: Double) extends Atom {
  def eval(ev: Ev): Boolean = Cmp.test(Attr.num(ev, attr), Cmp.code(op), value)
}

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

/** Attribute access helpers shared by predicates and partition-by keys. */
object Attr {
  final val Price = 0; final val Volume = 1; final val Ts = 2; final val Idx = 3

  /** The `Dataset[Ev]` column of `attr`, with the value [[str]] renders:
    * positions and times become doubles, so events whose key strings are
    * equal have equal columns and hash to the same Spark partition. */
  def column(attr: String): Column = attr match {
    case "name"               => col("name")
    case "type"               => col("etype")
    case "price" | "volume"   => col(attr)
    case "ts" | "stock_time"  => col("ts").cast("double")
    case "idx"                => col("idx").cast("double")
    case other => throw new IllegalArgumentException(s"unknown attribute $other")
  }
  def str(ev: Ev, attr: String): String = attr match {
    case "name"  => ev.name
    case "type"  => ev.etype
    case other   => num(ev, other).toString
  }
  def num(ev: Ev, attr: String): Double = numAt(ev, numField(attr))

  /** The field code of a numeric attribute, for [[numAt]]. */
  def numField(attr: String): Int = attr match {
    case "price"             => Price
    case "volume"            => Volume
    case "ts" | "stock_time" => Ts
    case "idx"               => Idx
    case other => throw new IllegalArgumentException(s"unknown numeric attribute $other")
  }
  def numAt(ev: Ev, field: Int): Double = (field: @switch) match {
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
  def key(attr: String): Ev => AnyRef = attr match {
    case "name" => _.name
    case "type" => _.etype
    case other  =>
      val f = numField(other)
      ev => java.lang.Long.valueOf(java.lang.Double.doubleToLongBits(numAt(ev, f)))
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
  * (each atomic predicate evaluated exactly once — §5.4), through atoms whose
  * attribute and operator were resolved on the first call after the last
  * [[intern]].
  */
final class AtomRegistry extends Serializable {
  private val atoms = mutable.ArrayBuffer.empty[Atom]
  private val index = mutable.HashMap.empty[Atom, Int]
  @transient private var compiled: AtomRegistry.Compiled = null

  def intern(a: Atom): Int =
    index.getOrElseUpdate(a, { atoms += a; compiled = null; atoms.size - 1 })

  def size: Int = atoms.size

  def atom(i: Int): Atom = atoms(i)

  /** `Long`s in a mask: one per 64 atoms, at least one. */
  def words: Int = math.max(1, (atoms.size + 63) >>> 6)

  /** Writes the mask of `ev` into `out`, which has [[words]] words, and returns it. */
  def mask(ev: Ev, out: Array[Long]): Array[Long] = {
    var c = compiled
    if (c == null) { c = new AtomRegistry.Compiled(atoms.toArray); compiled = c }
    c.eval(ev, out)
    out
  }

  /** The mask of `ev` in a new array. */
  def mask(ev: Ev): Array[Long] = mask(ev, new Array[Long](words))
}

object AtomRegistry {
  /** Whether bit `i` of `mask` is set. */
  def has(mask: Array[Long], i: Int): Boolean = (mask(i >>> 6) & (1L << (i & 63))) != 0

  private final val TypeK = 0
  private final val NameK = 1
  private final val NumK = 2
  /** Anything else (a string compare of a number's rendering) runs the atom's own `eval`. */
  private final val OtherK = 3

  /** The atoms as parallel arrays: a kind and its operand per atom. */
  private final class Compiled(atoms: Array[Atom]) {
    private val kind = new Array[Int](atoms.length)
    private val field = new Array[Int](atoms.length)
    private val op = new Array[Int](atoms.length)
    private val num = new Array[Double](atoms.length)
    private val str = new Array[String](atoms.length)
    for (i <- atoms.indices) atoms(i) match {
      case TypeIs(t)            => kind(i) = TypeK; str(i) = t
      case StrEq("type", v)     => kind(i) = TypeK; str(i) = v
      case StrEq("name", v)     => kind(i) = NameK; str(i) = v
      case NumCmp(a, o, v)      => kind(i) = NumK; field(i) = Attr.numField(a); op(i) = Cmp.code(o); num(i) = v
      case _                    => kind(i) = OtherK
    }

    def eval(ev: Ev, out: Array[Long]): Unit = {
      java.util.Arrays.fill(out, 0L)
      var i = 0
      while (i < atoms.length) {
        val hit = (kind(i): @switch) match {
          case TypeK => ev.etype == str(i)
          case NameK => ev.name == str(i)
          case NumK  => Cmp.test(Attr.numAt(ev, field(i)), op(i), num(i))
          case _     => atoms(i).eval(ev)
        }
        if (hit) out(i >>> 6) |= 1L << (i & 63)
        i += 1
      }
    }
  }
}
