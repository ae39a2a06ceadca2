package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.cel._
import repro.core.ceql._
import repro.core.engine.{BruteForce, Engines}
import repro.core.TestUtil._

/** Selection strategies (§2, §6): ALL is exact; MAX returns only maximal
  * matches; NEXT/LAST are engine-level run-retention policies that return a
  * subset of ALL (see DESIGN.md §3 for the approximation note).
  */
class SelectionSpec extends AnyFunSuite {

  private val pat = Cel.seq(CAtom("A"), CPlus(CAtom("B")), CAtom("C"))
  private val evs = stream("A", "B", "B", "C")

  test("ALL returns every subset binding of the iteration") {
    val got = runAll(Engines.core(query(pat)), evs).toSet
    assert(got == Set(
      ComplexEvent(0, 3, List(0, 1, 3)),
      ComplexEvent(0, 3, List(0, 2, 3)),
      ComplexEvent(0, 3, List(0, 1, 2, 3))))
  }

  test("MAX returns only maximal matches") {
    val got = runAll(Engines.core(query(pat, strategy = Strategy.Max)), evs).toSet
    assert(got == Set(ComplexEvent(0, 3, List(0, 1, 2, 3))))
  }

  test("MAX agrees with brute force + maximality filter") {
    val q = query(Cel.seq(CAtom("A"), CPlus(COr(CAtom("B"), CAtom("C")))), strategy = Strategy.Max)
    val s = stream("A", "B", "C", "B")
    assert(runAll(Engines.core(q), s).toSet == BruteForce.evaluate(q, s))
  }

  test("MAX under a per-event limit emits maximal matches, not the first candidates") {
    val e = Engines.core(query(CPlus(CAtom("A")), strategy = Strategy.Max), limit = 1)
    val got = stream("C", "A", "A", "A").map(e.onEvent(_).map(_.data))
    assert(got == Seq(Nil, List(List(1L)), List(List(1L, 2L)), List(List(1L, 2L, 3L))))
  }

  test("NEXT and LAST return subsets of ALL") {
    val all = runAll(Engines.core(query(pat)), evs).toSet
    for (s <- Seq(Strategy.Next, Strategy.Last)) {
      val got = runAll(Engines.core(query(pat, strategy = s)), evs).toSet
      assert(got.subsetOf(all), s"$s not a subset")
      assert(got.nonEmpty, s"$s returned nothing")
    }
  }

  test("LAST prefers later-starting runs") {
    val q = query(Cel.seqOfTypes("A", "B"), strategy = Strategy.Last)
    val got = runAll(Engines.core(q), stream("A", "A", "B")).toSet
    assert(got == Set(ComplexEvent(1, 2, List(1, 2))))
  }

  test("NEXT prefers earlier-starting runs") {
    val q = query(Cel.seqOfTypes("A", "B"), strategy = Strategy.Next)
    val got = runAll(Engines.core(q), stream("A", "A", "B")).toSet
    assert(got == Set(ComplexEvent(0, 2, List(0, 2))))
  }

  test("all strategies agree when the match is unique") {
    val q = query(Cel.seqOfTypes("A", "B", "C"))
    val s = stream("A", "X", "B", "C")
    val expected = Set(ComplexEvent(0, 3, List(0, 2, 3)))
    for (st <- Seq(Strategy.All, Strategy.Next, Strategy.Last, Strategy.Max))
      assert(runAll(Engines.core(q.copy(strategy = st)), s).toSet == expected, st.toString)
  }

  test("strategies produce no output when the pattern cannot complete") {
    // the T3 benchmark setting: A3 never occurs
    val q = query(Cel.seqOfTypes("A1", "A2", "A3"), CountWindow(100))
    val s = repro.gen.StreamGen.randomStream(500, Seq("A1", "A2")).toIndexedSeq
    for (st <- Seq(Strategy.All, Strategy.Next, Strategy.Last, Strategy.Max))
      assert(runAll(Engines.core(q.copy(strategy = st)), s).isEmpty, st.toString)
  }

  test("maximalOnly filter keeps incomparable matches") {
    val ms = List(
      ComplexEvent(0, 5, List(0, 1, 5)),
      ComplexEvent(0, 5, List(0, 2, 5)),
      ComplexEvent(0, 5, List(0, 1, 2, 5)))
    assert(Engines.maximalOnly(ms) == List(ComplexEvent(0, 5, List(0, 1, 2, 5))))
    val inc = List(ComplexEvent(0, 5, List(0, 1)), ComplexEvent(2, 5, List(2, 3)))
    assert(Engines.maximalOnly(inc).toSet == inc.toSet)
  }
}
