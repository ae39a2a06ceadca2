package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Prop.forAll
import repro.core._
import repro.core.cel._
import repro.core.ceql._
import repro.core.engine.{BruteForce, Engines}
import repro.core.TestUtil._

/** The three baseline engines must recognize exactly the same complex events
  * as CORE (the paper verified output equality across systems, §6 Setup) —
  * they differ only in how partial matches are maintained.
  */
class BaselineSpec extends AnyFunSuite {

  private def all(q: CeqlQuery, evs: Seq[Ev]) = Map(
    "core"  -> runAll(Engines.core(q), evs).toSet,
    "sase"  -> runAll(Baselines.sase(q), evs).toSet,
    "esper" -> runAll(Baselines.esper(q), evs).toSet,
    "flink" -> runAll(Baselines.flink(q, limit = -1), evs).toSet,
  )

  test("all engines agree on a simple sequence") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(5))
    val evs = stream("A", "C", "A", "B", "B")
    val r = all(q, evs)
    assert(r.values.toSet.size == 1, r.toString)
  }

  test("all engines agree on disjunction (except SASE which lacks it in the real system)") {
    val q = query(Cel.seq(CAtom("A"), COr(CAtom("B"), CAtom("C"))), CountWindow(6))
    val evs = stream("A", "B", "C", "A", "B")
    val r = all(q, evs)
    assert(r.values.toSet.size == 1, r.toString)
  }

  test("all engines agree on iteration") {
    val q = query(Cel.seq(CAtom("A"), CPlus(CAtom("B")), CAtom("C")), CountWindow(8))
    val evs = stream("A", "B", "B", "C", "B", "C")
    val r = all(q, evs)
    assert(r.values.toSet.size == 1, r.toString)
  }

  test("all engines agree under consume-by-any") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(10), consume = Consume.Any)
    val evs = stream("A", "A", "B", "A", "B", "B")
    val r = all(q, evs)
    assert(r.values.toSet.size == 1, r.toString)
  }

  test("all engines agree with partition-by") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(10), partitionBy = Seq("volume"))
    val evs = stream("A", "B", "A", "B", "A", "B", "A")
    val r = all(q, evs)
    assert(r.values.toSet.size == 1, r.toString)
  }

  test("every baseline rejects an out-of-order event before changing any state, naming both positions or both starts") {
    // A@ts0, B@ts10, C@ts3: {0, 2} is a match, but a baseline that pruned the
    // run of A at ts10 cannot find it, so it must not answer without it
    val q = query(Cel.seqOfTypes("A", "C"), TimeWindow(5))
    val evs = IndexedSeq(Ev(0, 0, "A", "K", 0, 0), Ev(1, 10, "B", "K", 0, 0), Ev(2, 3, "C", "K", 0, 0))
    assert(BruteForce.evaluate(q, evs) == Set(ComplexEvent(0, 2, List(0, 2))))
    val wide = query(Cel.seqOfTypes("A", "C"), TimeWindow(20))
    val engines = Seq[(String, CeqlQuery => repro.core.engine.StreamEngine)](
      "sase" -> (Baselines.sase(_)), "esper" -> (Baselines.esper(_)), "flink" -> (Baselines.flink(_, limit = -1)))
    for ((name, mk) <- engines) {
      val e = mk(q)
      evs.take(2).foreach(e.onEvent)
      val back = intercept[IllegalArgumentException](e.onEvent(evs(2)))
      assert(back.getMessage.contains("idx 2 moves the window start back from 5 to -2"), s"$name: ${back.getMessage}")
      // a rejected A would start a second match of the C at idx 2
      val w = mk(wide)
      evs.take(2).foreach(w.onEvent)
      val repeated = intercept[IllegalArgumentException](w.onEvent(Ev(1, 12, "A", "K", 0, 0)))
      assert(repeated.getMessage.contains("idx 1 is not after the last idx 1"), s"$name: ${repeated.getMessage}")
      intercept[IllegalArgumentException](w.onEvent(Ev(2, 5, "A", "K", 0, 0)))
      assert(w.onEvent(Ev(2, 12, "C", "K", 0, 0)) == List(ComplexEvent(0, 2, List(0, 2))), name)
    }
  }

  test("under PARTITION BY name, every baseline names the key in both out-of-order messages") {
    val q = query(Cel.seqOfTypes("A", "C"), TimeWindow(20), partitionBy = Seq("name"))
    val engines = Seq[(String, CeqlQuery => repro.core.engine.StreamEngine)](
      "sase" -> (Baselines.sase(_)), "esper" -> (Baselines.esper(_)), "flink" -> (Baselines.flink(_, limit = -1)))
    for ((name, mk) <- engines) {
      val e = mk(q)
      Seq(Ev(0, 10, "A", "K", 0, 0), Ev(1, 10, "A", "L", 0, 0)).foreach(e.onEvent)
      val repeated = intercept[IllegalArgumentException](e.onEvent(Ev(0, 12, "C", "K", 0, 0))).getMessage
      assert(repeated.contains("for key 'K'") && repeated.contains("idx 0 is not after the last idx 0"), s"$name: $repeated")
      val back = intercept[IllegalArgumentException](e.onEvent(Ev(2, 5, "C", "L", 0, 0))).getMessage
      assert(back.contains("for key 'L'") && back.contains("idx 2 moves the window start back from -10 to -15"), s"$name: $back")
    }
  }

  test("property: SASE = brute force") {
    check(forAll(genCel(2), genStream, genWindow) { (f, evs, w) =>
      val q = query(f, w)
      runAll(Baselines.sase(q), evs).toSet == BruteForce.evaluate(q, evs)
    }, minTests = 40)
  }

  test("property: Esper = brute force") {
    check(forAll(genCel(2), genStream, genWindow) { (f, evs, w) =>
      val q = query(f, w)
      runAll(Baselines.esper(q), evs).toSet == BruteForce.evaluate(q, evs)
    }, minTests = 40)
  }

  test("property: FlinkCEP (full enumeration) = brute force") {
    check(forAll(genCel(2), genStream, genWindow) { (f, evs, w) =>
      val q = query(f, w)
      runAll(Baselines.flink(q, limit = -1), evs).toSet == BruteForce.evaluate(q, evs)
    }, minTests = 40)
  }

  test("FlinkCEP default emits at most one match per event (paper setup)") {
    val q = query(Cel.seqOfTypes("A", "B"))
    val evs = stream("A", "A", "A", "B")
    val engine = Baselines.flink(q)
    val counts = evs.map(e => engine.onEvent(e).size)
    assert(counts.max == 1)
  }

  test("SASE run count grows super-linearly with window on partial-match-heavy streams") {
    // A1 A2 only (no A3): partial matches accumulate within the window.
    val evs = repro.gen.StreamGen.randomStream(3000, Seq("A1", "A2"), noise = 6)
    val (cea, reg) = repro.core.cea.Compiler.compile(Cel.seqOfTypes("A1", "A2", "A3"))
    def runsAfter(window: Long): Int = {
      val e = new SaseEngine(cea, reg, CountWindow(window), Consume.Any, 10)
      evs.foreach(e.onEvent)
      e.numRuns
    }
    val r50 = runsAfter(50); val r200 = runsAfter(200)
    assert(r200 > 3 * r50, s"expected super-linear growth, got $r50 -> $r200")
  }

  test("CORE active state count is window-independent on the same stream") {
    val evs = repro.gen.StreamGen.randomStream(3000, Seq("A1", "A2"), noise = 6)
    def statesAfter(window: Long): Int = {
      val e = Engines.core(query(Cel.seqOfTypes("A1", "A2", "A3"), CountWindow(window)))
        .asInstanceOf[repro.core.engine.CoreEngine]
      evs.foreach(e.onEvent)
      e.activeStates
    }
    assert(statesAfter(200) == statesAfter(50))
  }
}
