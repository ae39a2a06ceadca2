package repro.core

import repro.core.cel._
import repro.core.ceql.Window

/** CEL's semantics (§3) by structural recursion over the formula, with no
  * automaton: an independent reference for the compiler and the engines.
  *
  * `[[φ]](S)` is a set of (interval, valuation) pairs, a valuation mapping
  * each variable to the stream positions it binds:
  *  - `R`: `([i, i], R ↦ {i})` for each event `i` of type `R`;
  *  - `φ AS X`: `X` also binds every position the valuation binds;
  *  - `φ FILTER X[P]`: every position bound to `X` satisfies `P`;
  *  - `φ1 OR φ2`: the union;
  *  - `φ1 ; φ2`: `([i, j], ν1 ∪ ν2)` for `([i, k], ν1)`, `([l, j], ν2)` with `k < l`;
  *  - `φ+`: the least fixpoint of `φ ∪ φ ; φ+`;
  *  - `π_L(φ)`: variables outside `L` bind nothing.
  *
  * Exponential in the stream length: streams must stay tiny.
  */
object CelSemantics {

  /** An (interval, valuation) pair, over stream indices. */
  private final case class Match(start: Int, end: Int, nu: Map[String, Set[Int]])

  /** The complex events of `φ` over `stream` whose interval fits in `window`. */
  def eval(f: Cel, stream: IndexedSeq[Ev], window: Window): Set[ComplexEvent] =
    sem(f, stream).collect {
      case Match(i, j, nu) if window.clock(stream(j)) - window.clock(stream(i)) <= window.epsilon =>
        ComplexEvent(stream(i).idx, stream(j).idx, nu.values.flatten.toList.distinct.sorted.map(stream(_).idx))
    }

  private def sem(f: Cel, s: IndexedSeq[Ev]): Set[Match] = f match {
    case CAtom(r) =>
      s.indices.filter(s(_).etype == r).map(i => Match(i, i, Map(r -> Set(i)))).toSet
    case CAs(inner, x) =>
      sem(inner, s).map(m => m.copy(nu = m.nu.updated(x, m.nu.values.flatten.toSet)))
    case CFilter(inner, x, p) =>
      sem(inner, s).filter(_.nu.getOrElse(x, Set.empty[Int]).forall(i => p.eval(s(i))))
    case COr(l, r) =>
      sem(l, s) ++ sem(r, s)
    case CSeq(l, r) =>
      seq(sem(l, s), sem(r, s))
    case CPlus(inner) =>
      val once = sem(inner, s)
      var plus = once
      var grown = true
      while (grown) {
        val next = once ++ seq(once, plus)
        grown = next.size > plus.size
        plus = next
      }
      plus
    case CProj(inner, keep) =>
      sem(inner, s).map(m => m.copy(nu = m.nu.filter { case (x, _) => keep.contains(x) }))
  }

  private def seq(ls: Set[Match], rs: Set[Match]): Set[Match] = for {
    a <- ls
    b <- rs if a.end < b.start
  } yield Match(a.start, b.end, (a.nu.keySet ++ b.nu.keySet).map { x =>
    x -> (a.nu.getOrElse(x, Set.empty[Int]) ++ b.nu.getOrElse(x, Set.empty[Int]))
  }.toMap)
}
