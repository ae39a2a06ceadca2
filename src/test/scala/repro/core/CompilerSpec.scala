package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Prop.forAll
import repro.core.cel._
import repro.core.cea.{Compiler, Determinizer}
import repro.core.engine.BruteForce
import repro.core.ceql.NoWindow
import repro.core.pred.NumCmp
import repro.core.TestUtil._

/** CEL → CEA compilation (appendix A.1) and on-the-fly I/O-determinization
  * (§4, §5.4): structure, size, and semantic checks.
  */
class CompilerSpec extends AnyFunSuite {

  test("atom compiles to two states plus normalized q0") {
    val (cea, _) = Compiler.compile(CAtom("A"))
    assert(cea.nStates == 3) // q1, q2, fresh q0
    assert(cea.finals.size == 1)
    assert(cea.trans.count(_.from == cea.q0) == 1)
  }

  test("q0 has no incoming transitions (§4 requirement)") {
    check(forAll(genCel(3)) { f =>
      val (cea, _) = Compiler.compile(f)
      cea.trans.forall(_.to != cea.q0)
    })
  }

  test("automaton size is linear in formula size") {
    // n-ary sequence: states grow linearly
    val sizes = (1 to 8).map { n =>
      val (cea, _) = Compiler.compile(Cel.seqOfTypes((1 to n).map(i => s"A$i"): _*))
      cea.nStates
    }
    val deltas = sizes.sliding(2).map(p => p(1) - p(0)).toSeq
    assert(deltas.distinct.size == 1, s"non-linear growth: $sizes")
  }

  test("sequence adds skip self-loops on the second operand's initials") {
    val (cea, _) = Compiler.compile(Cel.seqOfTypes("A", "B"))
    assert(cea.trans.exists(t => t.from == t.to && !t.mark))
  }

  test("marking transitions carry the atom's type predicate") {
    val (cea, reg) = Compiler.compile(CAtom("A"))
    val ev = stream("A").head
    val bits = reg.mask(ev)
    assert(cea.trans.filter(_.from == cea.q0).forall(t => t.pred.eval(bits) && t.mark))
  }

  test("filter conjoins onto marking transitions of the variable") {
    val f = CFilter(CAs(CAtom("A"), "x"), "x", NumCmp("price", ">", 5.0))
    val (cea, reg) = Compiler.compile(f)
    val cheap = stream("A").head // price 0
    assert(cea.trans.filter(_.from == cea.q0).forall(t => !t.pred.eval(reg.mask(cheap))))
  }

  test("projection unmarks dropped variables") {
    val f = CProj(Cel.seq(CAtom("A"), CAs(CAtom("B"), "b")), Set("b"))
    val (cea, _) = Compiler.compile(f)
    // first atom's transitions become non-marking
    assert(cea.trans.filter(_.from == cea.q0).forall(!_.mark))
  }

  // --------------------------------------------------------- determinization

  test("det initial state is {q0} and never final") {
    check(forAll(genCel(3)) { f =>
      val (cea, reg) = Compiler.compile(f)
      val det = new Determinizer(cea, reg)
      !det.isFinal(det.initial)
    })
  }

  test("det steps are cached (same bitvec → same targets, no growth)") {
    val (cea, reg) = Compiler.compile(Cel.seqOfTypes("A", "B"))
    val det = new Determinizer(cea, reg)
    val a = stream("A").head
    val r1 = det.step(det.initial, det.bits(a))
    val cacheAfter = det.cacheSize
    val r2 = det.step(det.initial, det.bits(a))
    assert(r1 == r2 && det.cacheSize == cacheAfter)
  }

  test("no marking transition and unmarking transition share a target set id unless sets equal") {
    val (cea, reg) = Compiler.compile(Cel.seqOfTypes("A", "B"))
    val det = new Determinizer(cea, reg)
    val (qm, qu) = det.step(det.initial, det.bits(stream("A").head))
    assert(qm >= 0) // A matches the first atom, marking
    assert(qu == -1) // no unmarking transition out of q0 on A for A;B
  }

  test("det-state count stays small on benchmark queries") {
    val (cea, reg) = Compiler.compile(Cel.seqOfTypes("A1", "A2", "A3", "A4", "A5"))
    val det = new Determinizer(cea, reg)
    val evs = repro.gen.StreamGen.randomStream(5000, (1 to 5).map(i => s"A$i"))
    var states = Set(det.initial)
    for (ev <- evs) {
      val bits = det.bits(ev)
      states = states.flatMap { s =>
        val (m, u) = det.step(s, bits)
        Set(s) ++ (if (m >= 0) Set(m) else Set()) ++ (if (u >= 0) Set(u) else Set())
      }
    }
    assert(det.numDetStates < 200, s"det blow-up: ${det.numDetStates}")
  }

  test("brute force over the CEA agrees with CEL semantics on hand examples") {
    // (A;B) OR (B;A) on stream A B A
    val f = COr(Cel.seqOfTypes("A", "B"), Cel.seqOfTypes("B", "A"))
    val got = BruteForce.evaluate(query(f), stream("A", "B", "A"))
    assert(got == Set(
      ComplexEvent(0, 1, List(0, 1)),
      ComplexEvent(1, 2, List(1, 2))))
  }

  test("AS over a compound pattern gathers positions") {
    // (A;B) AS x FILTER x[price < 100] — filter applies to both events
    val f = CFilter(CAs(Cel.seqOfTypes("A", "B"), "x"), "x", NumCmp("price", "<", 15.0))
    // stream A(0) B(10) B(20): second B fails the filter
    val got = BruteForce.evaluate(query(f), stream("A", "B", "B"))
    assert(got == Set(ComplexEvent(0, 1, List(0, 1))))
  }
}
