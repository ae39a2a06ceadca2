package repro.core.pred

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.col
import repro.core.Ev
import scala.collection.immutable.BitSet
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
  def eval(ev: Ev): Boolean = {
    val x = Attr.num(ev, attr)
    op match {
      case "<"  => x < value
      case "<=" => x <= value
      case ">"  => x > value
      case ">=" => x >= value
      case "="  => x == value
      case "!=" => x != value
      case other => throw new IllegalArgumentException(s"bad op $other")
    }
  }
}

/** Attribute access helpers shared by predicates and partition-by keys. */
object Attr {
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
  def num(ev: Ev, attr: String): Double = attr match {
    case "price"                    => ev.price
    case "volume"                   => ev.volume
    case "ts" | "stock_time"        => ev.ts.toDouble
    case "idx"                      => ev.idx.toDouble
    case other => throw new IllegalArgumentException(s"unknown numeric attribute $other")
  }
}

/** Boolean combination over interned atom indices — the form CEA transitions
  * carry, evaluated against an event's precomputed bit vector.
  */
sealed trait PredExpr extends Serializable {
  def eval(bits: BitSet): Boolean = this match {
    case PTrue        => true
    case PFalse       => false
    case PAtom(i)     => bits(i)
    case PAnd(l, r)   => l.eval(bits) && r.eval(bits)
    case POr(l, r)    => l.eval(bits) || r.eval(bits)
    case PNot(p)      => !p.eval(bits)
  }
}
case object PTrue                            extends PredExpr
case object PFalse                           extends PredExpr
final case class PAtom(idx: Int)             extends PredExpr
final case class PAnd(l: PredExpr, r: PredExpr) extends PredExpr
final case class POr(l: PredExpr, r: PredExpr)  extends PredExpr
final case class PNot(p: PredExpr)           extends PredExpr

/** Interns atomic predicates to dense indices; builds per-event bit vectors.
  *
  * One registry per compiled query. The engine calls [[bits]] once per event
  * (each atomic predicate evaluated exactly once — §5.4).
  */
final class AtomRegistry extends Serializable {
  private val atoms = mutable.ArrayBuffer.empty[Atom]
  private val index = mutable.HashMap.empty[Atom, Int]

  def intern(a: Atom): Int =
    index.getOrElseUpdate(a, { atoms += a; atoms.size - 1 })

  def size: Int = atoms.size

  def atom(i: Int): Atom = atoms(i)

  def bits(ev: Ev): BitSet = {
    var b = BitSet.empty
    var i = 0
    while (i < atoms.size) { if (atoms(i).eval(ev)) b += i; i += 1 }
    b
  }
}
