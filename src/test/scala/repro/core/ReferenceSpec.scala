package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Baselines
import repro.core.cea.Compiler
import repro.core.cel._
import repro.core.ceql._
import repro.core.engine.{BruteForce, Engines}
import repro.core.TestUtil._

/** The engines against references that share no code with them: CEL's
  * semantics by structural recursion ([[CelSemantics]]) for the compiler, and
  * a brute-force `CONSUME BY ANY` for CORE and the three baselines.
  */
class ReferenceSpec extends AnyFunSuite {

  private val vars = Seq("A", "B", "C", "xA", "xB", "xC")

  /** `f` with `π_L` wrappers added at random, around subformulas and the whole. */
  private def withProj(f: Cel): Gen[Cel] = {
    val inner: Gen[Cel] = f match {
      case CAs(i, x)        => withProj(i).map(CAs(_, x))
      case CFilter(i, x, p) => withProj(i).map(CFilter(_, x, p))
      case COr(l, r)        => for { a <- withProj(l); b <- withProj(r) } yield COr(a, b)
      case CSeq(l, r)       => for { a <- withProj(l); b <- withProj(r) } yield CSeq(a, b)
      case CPlus(i)         => withProj(i).map(CPlus)
      case other            => Gen.const(other)
    }
    for {
      g <- inner
      wrap <- Gen.frequency(3 -> false, 1 -> true)
      keep <- Gen.someOf(vars)
    } yield if (wrap) CProj(g, keep.toSet) else g
  }

  private val genFormula: Gen[Cel] = genCel(2).flatMap(withProj)

  /** A stream and a window: count (or none) over positions, or time over
    * timestamps growing by 0–3. */
  private val genWindowed: Gen[(IndexedSeq[Ev], Window)] = for {
    evs <- genTimedStream(7)
    w <- Gen.oneOf(genWindow, Gen.choose(0L, 8L).map(TimeWindow(_)))
  } yield (evs, w)

  test("property: CEL semantics by structural recursion = brute force over the compiled CEA") {
    check(forAll(genFormula, genWindowed) { case (f, (evs, w)) =>
      val (cea, reg) = Compiler.compile(f)
      val want = CelSemantics.eval(f, evs, w)
      val got = BruteForce.evaluate(cea, reg, evs, w)
      (got == want) :| s"$f over ${evs.map(_.etype).mkString}: CEA ${got -- want} extra, ${want -- got} missing"
    }, minTests = 1000)
  }

  // ---------------------------------------------------------- CONSUME BY ANY

  /** The matches under `CONSUME BY ANY`, per event of `evs`: each PARTITION BY
    * key's substream starts over after every position where some in-window
    * match ends, so a match there holds no earlier event of its key.
    */
  private def consumeAny(q: CeqlQuery, evs: IndexedSeq[Ev]): IndexedSeq[Set[ComplexEvent]] = {
    val (cea, reg) = Compiler.compile(q.pattern)
    val key = Engines.partKeyFn(q.partitionBy)
    val out = Array.fill(evs.length)(Set.empty[ComplexEvent])
    for ((_, sub) <- evs.indices.groupBy(i => key(evs(i)))) {
      var from = 0
      for (k <- sub.indices) {
        val rest = sub.slice(from, k + 1).map(evs)
        val m = BruteForce.evaluate(cea, reg, rest, q.within).filter(_.end == evs(sub(k)).idx)
        if (m.nonEmpty) from = k + 1
        out(sub(k)) = m
      }
    }
    out.toIndexedSeq
  }

  /** Streams of up to 10 events over {A, B, C} in two volumes (PARTITION BY
    * keys), with timestamps growing by 0–3, and a count or time window. */
  private val genConsumed: Gen[(IndexedSeq[Ev], Window)] = for {
    evs <- genTimedStream(10)
    vols <- Gen.listOfN(evs.length, Gen.oneOf(0.0, 100.0))
    w <- Gen.oneOf(Gen.choose(1L, 8L).map(CountWindow(_)), Gen.choose(0L, 10L).map(TimeWindow(_)))
  } yield (evs.zip(vols).map { case (e, v) => e.copy(volume = v) }, w)

  private val genPartition: Gen[Seq[String]] = Gen.oneOf(Nil, Seq("volume"))

  test("property: CORE under CONSUME BY ANY = the reference, per event, at limits -1 and 10") {
    check(forAll(genCel(2), genConsumed, genPartition) { case (f, (evs, w), part) =>
      val q = query(f, w, consume = Consume.Any, partitionBy = part)
      val want = consumeAny(q, evs)
      val all = Engines.core(q); val ten = Engines.core(q, limit = 10)
      evs.indices.forall { j =>
        val a = all.onEvent(evs(j)); val t = ten.onEvent(evs(j))
        a.toSet == want(j) && a.size == want(j).size &&
          t.size == math.min(10, want(j).size) && t.toSet.subsetOf(want(j))
      }
    }, minTests = 150)
  }

  test("property: SASE and Esper under CONSUME BY ANY = the reference, per event; FlinkCEP emits one of its matches") {
    check(forAll(genCel(2), genConsumed, genPartition) { case (f, (evs, w), part) =>
      val q = query(f, w, consume = Consume.Any, partitionBy = part)
      val want = consumeAny(q, evs)
      val sase = Baselines.sase(q); val esper = Baselines.esper(q); val flink = Baselines.flink(q)
      evs.indices.forall { j =>
        val one = flink.onEvent(evs(j))
        sase.onEvent(evs(j)).toSet == want(j) && esper.onEvent(evs(j)).toSet == want(j) &&
          one.size == math.min(1, want(j).size) && one.toSet.subsetOf(want(j))
      }
    }, minTests = 100)
  }
}
