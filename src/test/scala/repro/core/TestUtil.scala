package repro.core

import repro.core.cel.Cel
import repro.core.ceql._
import repro.core.engine.StreamEngine
import org.scalacheck.{Gen, Prop, Test => SCTest}

/** Shared helpers for core tests: tiny stream builders, random CEL formula /
  * stream generators for property tests, engine drivers.
  */
object TestUtil {

  /** Stream from type names: positions/ts = indices; price = 10*i. */
  def stream(types: String*): IndexedSeq[Ev] =
    types.zipWithIndex.map { case (t, i) =>
      Ev(i.toLong, i.toLong, t, s"N$t", 10.0 * i, 100.0 * (i % 3))
    }.toIndexedSeq

  /** Run an engine over a full stream, collecting all matches. */
  def runAll(engine: StreamEngine, evs: Seq[Ev]): List[ComplexEvent] =
    evs.flatMap(engine.onEvent).toList

  def query(where: Cel, window: Window = NoWindow,
            strategy: Strategy = Strategy.All, consume: Consume = Consume.None,
            partitionBy: Seq[String] = Nil): CeqlQuery =
    CeqlQuery(strategy, None, Seq("S"), where, partitionBy, window, consume)

  /** Run a ScalaCheck property and fail the test on falsification
    * (scalatestplus is not in the offline cache, so we bridge by hand).
    */
  def check(p: Prop, minTests: Int = 80): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minTests), p)
    assert(res.passed, s"property falsified: ${res.status}")
  }

  // ------------------------------------------------------------ scalacheck

  import repro.core.cel._
  import repro.core.pred.NumCmp

  val genAtomType: Gen[String] = Gen.oneOf("A", "B", "C")

  /** Random CEL formulas of bounded depth over types {A,B,C} with occasional
    * filters, AS bindings, disjunction, sequencing, and iteration.
    */
  def genCel(depth: Int): Gen[Cel] =
    if (depth <= 0) genAtomType.map(CAtom)
    else Gen.frequency(
      3 -> genAtomType.map(CAtom),
      3 -> (for { l <- genCel(depth - 1); r <- genCel(depth - 1) } yield CSeq(l, r)),
      2 -> (for { l <- genCel(depth - 1); r <- genCel(depth - 1) } yield COr(l, r)),
      1 -> genCel(depth - 1).map(CPlus),
      1 -> (for { i <- genCel(depth - 1); t <- genAtomType } yield CAs(i, s"x$t")),
      1 -> (for {
        t <- genAtomType
        thr <- Gen.choose(0, 12)
      } yield CFilter(CAtom(t), t, NumCmp("price", "<", 10.0 * thr))),
    )

  val genStream: Gen[IndexedSeq[Ev]] = for {
    len <- Gen.choose(0, 12)
    types <- Gen.listOfN(len, genAtomType)
  } yield stream(types: _*)

  /** Streams of up to `maxLen` events over {A,B,C} whose timestamps grow by
    * 0–3 per event. */
  def genTimedStream(maxLen: Int): Gen[IndexedSeq[Ev]] = for {
    len <- Gen.choose(0, maxLen)
    types <- Gen.listOfN(len, genAtomType)
    gaps <- Gen.listOfN(len, Gen.choose(0, 3))
  } yield types.zip(gaps.scanLeft(0L)(_ + _)).zipWithIndex.map { case ((t, ts), i) =>
    Ev(i.toLong, ts, t, s"N$t", 10.0 * i, 0.0)
  }.toIndexedSeq

  val genWindow: Gen[Window] = Gen.oneOf(
    Gen.const(NoWindow), Gen.choose(1L, 12L).map(CountWindow(_)))
}
