package repro.spark

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ComplexEvent, Ev}
import repro.core.TestUtil._
import repro.core.cea.{Compiler, Determinizer}
import repro.core.cel._
import repro.core.ceql._
import repro.core.engine.{BruteForce, CoreEngine}

/** The Spark operators' row iterator ([[MatchRows]]), which formats rows
  * straight from the enumerator's position buffer, against the list path
  * (`CoreEngine.onEvent` → `ComplexEvent` → `mkString`) and brute force.
  */
class MatchRowsSpec extends AnyFunSuite {

  private val key = "k"

  private def engine(q: CeqlQuery, limit: Int): CoreEngine = {
    val (cea, reg) = Compiler.compile(q.pattern)
    new CoreEngine(new Determinizer(cea, reg), q.within, q.strategy, q.consume, limit, key)
  }

  private def row(ce: ComplexEvent): MatchRow = MatchRow(key, ce.start, ce.end, ce.data.mkString(","))

  /** Rows of the list path, per event. */
  private def listRows(q: CeqlQuery, limit: Int, evs: Seq[Ev]): Seq[List[MatchRow]] = {
    val e = engine(q, limit)
    evs.map(ev => e.onEvent(ev).map(row))
  }

  /** Rows of one row iterator per event, all on one engine. */
  private def iteratorRowsPerEvent(q: CeqlQuery, limit: Int, evs: Seq[Ev]): Seq[List[MatchRow]] = {
    val e = engine(q, limit)
    evs.map(ev => new MatchRows(key, e, Iterator.single(ev)).toList)
  }

  private val genConfig: Gen[(Window, Strategy, Consume, Int)] = for {
    window <- Gen.oneOf(Gen.choose(1L, 12L).map(CountWindow(_)), Gen.choose(0L, 20L).map(TimeWindow(_)))
    strategy <- Gen.oneOf(Strategy.All, Strategy.Max, Strategy.Next, Strategy.Last)
    consume <- Gen.oneOf(Consume.None, Consume.Any)
    limit <- Gen.oneOf(-1, 0, 1, 10)
  } yield (window, strategy, consume, limit)

  test("property: the row iterator gives the list path's rows, event by event, and both agree with brute force") {
    check(Prop.forAll(genCel(3), genTimedStream(14), genConfig) {
      case (f, evs, (window, strategy, consume, limit)) =>
        val q = query(f, window, strategy, consume)
        val want = listRows(q, limit, evs)
        val whole = new MatchRows(key, engine(q, limit), evs.iterator).toList
        val all = BruteForce.evaluate(q.copy(strategy = Strategy.All), evs).map(row)
        val exact = strategy != Strategy.Next && strategy != Strategy.Last &&
          consume == Consume.None && limit < 0
        iteratorRowsPerEvent(q, limit, evs) == want &&
          whole == want.flatten &&
          want.forall(rs => limit < 0 || rs.size <= limit) &&
          (if (exact) want.flatten.toSet == BruteForce.evaluate(q, evs).map(row)
           else want.flatten.toSet.subsetOf(all))
    }, minTests = 300)
  }

  test("rows longer than the initial buffers, from a DFS stack deeper than them, start at position 0") {
    // T1;T2;...;T100 over T1 T2 T2 T3 T3 ... T100 T100: every match starts at
    // 0 and has 100 positions, and its path in the tECS crosses a union for
    // each of T2..T99, so the walk stacks a branch per level.
    val n = 100
    val types = (1 to n).map(k => s"T$k")
    val q = query(Cel.seqOfTypes(types: _*), CountWindow(2L * n))
    val evs = stream(types.head +: types.tail.flatMap(t => Seq(t, t)): _*)
    val limit = 10
    val rows = new MatchRows(key, engine(q, limit), evs.iterator).toList
    assert(rows == listRows(q, limit, evs).flatten)
    assert(rows.size == 2 * limit && rows.distinct == rows)
    // T1 is at 0, Tk at 2k-3 or 2k-2.
    for (r <- rows) {
      val ps = r.data.split(',').map(_.toLong).toSeq
      assert(r.start == 0 && ps.length == n && ps.last == r.end, r)
      assert(ps.zipWithIndex.forall { case (p, i) => i == 0 && p == 0 || i > 0 && (p == 2 * i - 1 || p == 2 * i) }, r)
    }
  }

  test("the state callback runs once, after the last row") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(10))
    var calls = 0
    val rows = new MatchRows(key, engine(q, -1), stream("A", "A", "B").iterator, () => calls += 1)
    assert(rows.hasNext && calls == 0)
    assert(rows.toList.size == 2)
    assert(!rows.hasNext && calls == 1)
  }
}
