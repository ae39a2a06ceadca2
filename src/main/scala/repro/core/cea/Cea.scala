package repro.core.cea

import repro.core.cel._
import repro.core.pred._
import scala.collection.mutable.ArrayBuffer

/** A transition of a valuation CEA (appendix A.1): a guard over interned
  * atoms plus the set of variables the consumed event is bound to.
  */
final case class VTrans(from: Int, guard: Guard, labels: Set[String], to: Int)

/** Valuation Complex Event Automaton: the intermediate automaton of the
  * appendix-A.1 construction (multiple initial states, label sets).
  */
final case class Vcea(nStates: Int, trans: Vector[VTrans], initials: Set[Int], finals: Set[Int])

/** A transition of a CEA (§4): marking (`mark = true`, •) or not (∘). */
final case class CTrans(from: Int, guard: Guard, mark: Boolean, to: Int)

/** Complex Event Automaton `(Q, Δ, q0, F)` (§4). `q0` has no incoming
  * transitions; a run may start at any stream position.
  */
final case class Cea(nStates: Int, trans: Vector[CTrans], q0: Int, finals: Set[Int]) {
  /** Outgoing transitions indexed by source state. */
  @transient lazy val bySource: Array[Array[CTrans]] = {
    val buf = Array.fill(nStates)(ArrayBuffer.empty[CTrans])
    trans.foreach(t => buf(t.from) += t)
    buf.map(_.toArray)
  }
}

/** Compiles CEL formulas to CEA, following appendix A.1.
  *
  * Deviation (documented in DESIGN.md §4): the `φ+` construction gets a
  * `(q, TRUE, ∅, q)` skip self-loop on the fresh hub state so that gaps are
  * allowed between iterations, consistent with `φ+` being iterated `;`.
  */
object Compiler {

  /** Compile; returns the CEA plus the atom registry used to intern the
    * formula's atomic predicates (shared with the evaluating engine).
    */
  def compile(formula: Cel): (Cea, AtomRegistry) = {
    val reg = new AtomRegistry
    val v = normalizeInitial(build(formula, reg))
    (toCea(v), reg)
  }

  /** Appendix A.1 inductive VCEA construction. States are globally numbered
    * via a shared counter carried in the builder.
    */
  private final class B { var n = 0; def fresh(): Int = { val s = n; n += 1; s } }

  private def build(formula: Cel, reg: AtomRegistry): Vcea = {
    val b = new B
    def go(f: Cel): (Vector[VTrans], Set[Int], Set[Int]) = f match {
      case CAtom(r) =>
        val q1 = b.fresh(); val q2 = b.fresh()
        (Vector(VTrans(q1, Guard.True and reg.intern(TypeIs(r)), Set(r), q2)), Set(q1), Set(q2))

      case CAs(inner, x) =>
        val (t, i, fl) = go(inner)
        (t.map(tr => if (tr.labels.nonEmpty) tr.copy(labels = tr.labels + x) else tr), i, fl)

      case CFilter(inner, x, atom) =>
        val (t, i, fl) = go(inner)
        val a = reg.intern(atom)
        (t.map(tr => if (tr.labels.contains(x)) tr.copy(guard = tr.guard and a) else tr), i, fl)

      case COr(l, r) =>
        val (t1, i1, f1) = go(l); val (t2, i2, f2) = go(r)
        (t1 ++ t2, i1 ++ i2, f1 ++ f2)

      case CSeq(l, r) =>
        val (t1, i1, f1) = go(l); val (t2, i2, f2) = go(r)
        val skip    = i2.toVector.map(p => VTrans(p, Guard.True, Set.empty, p))
        val bridges = for {
          tr <- t1 if f1.contains(tr.to)
          q  <- i2
        } yield tr.copy(to = q)
        (t1 ++ t2 ++ skip ++ bridges, i1, f2)

      case CPlus(inner) =>
        val (t, i, fl) = go(inner)
        val q = b.fresh()
        val intoHub  = t.filter(tr => fl.contains(tr.to)).map(_.copy(to = q))
        val outOfHub = t.filter(tr => i.contains(tr.from)).map(_.copy(from = q))
        // An iteration of a single event takes the hub back to itself.
        val hubLoop  = t.filter(tr => i.contains(tr.from) && fl.contains(tr.to)).map(_.copy(from = q, to = q))
        val hubSkip  = Vector(VTrans(q, Guard.True, Set.empty, q))
        (t ++ intoHub ++ outOfHub ++ hubLoop ++ hubSkip, i, fl)

      case CProj(inner, keep) =>
        val (t, i, fl) = go(inner)
        (t.map(tr => tr.copy(labels = tr.labels.intersect(keep))), i, fl)
    }
    val (t, i, fl) = go(formula)
    require(i.intersect(fl).isEmpty, "CEL formulas match at least one event; I ∩ F must be empty")
    Vcea(b.n, t, i, fl)
  }

  /** Collapse the initial-state set to a single fresh q0 with no incoming
    * transitions (§4 requires this so run start positions are well defined).
    */
  private def normalizeInitial(v: Vcea): Vcea = {
    val q0 = v.nStates
    val fromQ0 = v.trans.filter(t => v.initials.contains(t.from)).map(_.copy(from = q0))
    Vcea(v.nStates + 1, v.trans ++ fromQ0, Set(q0), v.finals)
  }

  /** Labels → marks: a transition marks (•) iff it binds at least one variable
    * (appendix A.1, final step).
    */
  private def toCea(v: Vcea): Cea = {
    require(v.initials.size == 1)
    Cea(v.nStates, v.trans.map(t => CTrans(t.from, t.guard, t.labels.nonEmpty, t.to)),
        v.initials.head, v.finals)
  }
}
