package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.cel._
import repro.core.ceql._
import repro.core.ceql.CeqlParser.parse
import repro.core.pred.{NumCmp, StrEq}

/** CEQL parser coverage: the paper's example queries (Fig 1, Example 1,
  * appendix C) plus precedence, window units, and error cases.
  */
class ParserSpec extends AnyFunSuite {

  test("minimal query") {
    val q = parse("SELECT * FROM S WHERE A")
    assert(q.strategy == Strategy.All)
    assert(q.selectVars.isEmpty)
    assert(q.streams == Seq("S"))
    assert(q.where == CAtom("A"))
    assert(q.within == NoWindow)
    assert(q.consume == Consume.None)
  }

  test("sequencing is left-associative") {
    val q = parse("SELECT * FROM S WHERE A; B; C")
    assert(q.where == CSeq(CSeq(CAtom("A"), CAtom("B")), CAtom("C")))
  }

  test("OR binds tighter than sequencing") {
    val q = parse("SELECT * FROM S WHERE A; B OR C; D")
    assert(q.where == CSeq(CSeq(CAtom("A"), COr(CAtom("B"), CAtom("C"))), CAtom("D")))
  }

  test("parentheses override precedence") {
    val q = parse("SELECT * FROM S WHERE (A; B) OR C")
    assert(q.where == COr(CSeq(CAtom("A"), CAtom("B")), CAtom("C")))
  }

  test("kleene plus is postfix") {
    val q = parse("SELECT * FROM S WHERE A; B+; C")
    assert(q.where == CSeq(CSeq(CAtom("A"), CPlus(CAtom("B"))), CAtom("C")))
  }

  test("kleene plus on parenthesized disjunction") {
    val q = parse("SELECT * FROM S WHERE A; (B OR C)+; D")
    assert(q.where == CSeq(CSeq(CAtom("A"), CPlus(COr(CAtom("B"), CAtom("C")))), CAtom("D")))
  }

  test("AS binds a variable") {
    val q = parse("SELECT * FROM S WHERE SELL as s; BUY as b")
    assert(q.where == CSeq(CAs(CAtom("SELL"), "s"), CAs(CAtom("BUY"), "b")))
  }

  test("FILTER applies to the whole preceding pattern") {
    val q = parse("SELECT * FROM S WHERE A as x; B as y FILTER x[price > 10]")
    assert(q.where == CFilter(CSeq(CAs(CAtom("A"), "x"), CAs(CAtom("B"), "y")),
      "x", NumCmp("price", ">", 10.0)))
  }

  test("FILTER with AND nests filters") {
    val q = parse("SELECT * FROM S WHERE A as x FILTER x[price > 10] AND x[price < 20]")
    assert(q.where == CFilter(CFilter(CAs(CAtom("A"), "x"), "x", NumCmp("price", ">", 10.0)),
      "x", NumCmp("price", "<", 20.0)))
  }

  test("FILTER with OR duplicates the pattern") {
    val q = parse("SELECT * FROM S WHERE A as x FILTER x[price > 10] OR x[price < 5]")
    assert(q.where == COr(
      CFilter(CAs(CAtom("A"), "x"), "x", NumCmp("price", ">", 10.0)),
      CFilter(CAs(CAtom("A"), "x"), "x", NumCmp("price", "<", 5.0))))
  }

  test("string equality filter with single and double quotes") {
    val q1 = parse("SELECT * FROM S WHERE A as x FILTER x[name = 'MSFT']")
    val q2 = parse("SELECT * FROM S WHERE A as x FILTER x[name = \"MSFT\"]")
    assert(q1.where == q2.where)
    assert(q1.where == CFilter(CAs(CAtom("A"), "x"), "x", StrEq("name", "MSFT")))
  }

  test("comparison operators normalize") {
    val q = parse("SELECT * FROM S WHERE A as x FILTER x[price <> 3] AND x[price == 4]")
    assert(q.where == CFilter(CFilter(CAs(CAtom("A"), "x"), "x", NumCmp("price", "!=", 3.0)),
      "x", NumCmp("price", "=", 4.0)))
  }

  test("SELECT variable list becomes projection via pattern") {
    val q = parse("SELECT b FROM S WHERE SELL as s; BUY as b")
    assert(q.selectVars.contains(Set("b")))
    assert(q.pattern == CProj(q.where, Set("b")))
  }

  test("SELECT strategy keyword") {
    assert(parse("SELECT MAX * FROM S WHERE A").strategy == Strategy.Max)
    assert(parse("SELECT LAST * FROM S WHERE A").strategy == Strategy.Last)
    assert(parse("SELECT NEXT * FROM S WHERE A").strategy == Strategy.Next)
    assert(parse("SELECT ALL * FROM S WHERE A").strategy == Strategy.All)
  }

  test("PARTITION BY with multiple attributes") {
    val q = parse("SELECT * FROM S WHERE A PARTITION BY [name], [volume]")
    assert(q.partitionBy == Seq("name", "volume"))
  }

  test("window units") {
    assert(parse("SELECT * FROM S WHERE A WITHIN 100 events").within == CountWindow(100))
    assert(parse("SELECT * FROM S WHERE A WITHIN 1 minute").within == TimeWindow(60000))
    assert(parse("SELECT * FROM S WHERE A WITHIN 30 minutes").within == TimeWindow(1800000))
    assert(parse("SELECT * FROM S WHERE A WITHIN 2 seconds").within == TimeWindow(2000))
    assert(parse("SELECT * FROM S WHERE A WITHIN 30000 ms").within == TimeWindow(30000))
    assert(parse("SELECT * FROM S WHERE A WITHIN 30000 [stock_time]").within == TimeWindow(30000))
  }

  test("CONSUME BY ANY") {
    assert(parse("SELECT * FROM S WHERE A CONSUME BY ANY").consume == Consume.Any)
  }

  test("multiple streams in FROM") {
    assert(parse("SELECT * FROM S1, S2 WHERE A").streams == Seq("S1", "S2"))
  }

  test("identifiers may contain primes (A2')") {
    val q = parse("SELECT * FROM S WHERE A1; (A2 OR A2'); A3")
    assert(q.where == CSeq(CSeq(CAtom("A1"), COr(CAtom("A2"), CAtom("A2'"))), CAtom("A3")))
  }

  test("Example 1 query from the introduction parses") {
    val q = parse("""SELECT * FROM Stock
      WHERE (SELL as ms; (BUY OR SELL) as or_; (BUY OR SELL) as cs; SELL as am)
      FILTER ms[name="MSFT"] AND ms[price > 26.0]
      AND or_[name = "ORCL"] AND or_[price < 11.14]
      AND cs[name="CSCO"] AND am[name="AMZN"] AND am[price >= 18.97]
      WITHIN 30 minutes""")
    assert(q.within == TimeWindow(1800000))
    assert(q.where.variables.contains("ms"))
  }

  test("all appendix-C stock queries parse") {
    import repro.harness.Workloads
    for (qn <- 1 to 7) {
      val q = Workloads.stockQuery(s"Q$qn")
      assert(q.within == TimeWindow(30000), s"Q$qn window")
    }
    assert(Workloads.stockQuery("Q3").partitionBy == Seq("volume"))
    assert(Workloads.stockQuery("Q3").consume == Consume.Any)
    assert(Workloads.stockQuery("Q6").partitionBy == Seq("volume"))
  }

  test("Fig 1 Q3 (segmentation query with MAX) parses") {
    val q = parse("""SELECT MAX * FROM Stock
      WHERE SELL as low; SELL+ as s1; SELL as high; SELL+ as s2; SELL as end_
      FILTER low[price < 100] AND s1[price >= 100] AND s1[price <= 2000]
      AND high[price > 2000] AND s2[price >= 100] AND s2[price <= 2000]
      AND end_[price < 100]
      PARTITION BY [name]""")
    assert(q.strategy == Strategy.Max)
    assert(q.partitionBy == Seq("name"))
  }

  // ------------------------------------------------------------ error cases

  test("rejects missing WHERE") {
    assertThrows[IllegalArgumentException](parse("SELECT * FROM S"))
  }
  test("rejects trailing garbage") {
    assertThrows[IllegalArgumentException](parse("SELECT * FROM S WHERE A extra stuff ;"))
  }
  test("rejects unterminated string") {
    assertThrows[IllegalArgumentException](parse("SELECT * FROM S WHERE A as x FILTER x[name = 'MSFT"))
  }
  test("rejects unknown window unit") {
    assertThrows[IllegalArgumentException](parse("SELECT * FROM S WHERE A WITHIN 5 fortnights"))
  }
  test("rejects string inequality") {
    assertThrows[IllegalArgumentException](parse("SELECT * FROM S WHERE A as x FILTER x[name < 'Z']"))
  }
  test("a WITHIN attribute must be the timestamp") {
    assert(parse("SELECT * FROM S WHERE A WITHIN 5 [ts]").within == TimeWindow(5))
    val e = intercept[IllegalArgumentException](parse("SELECT * FROM S WHERE A WITHIN 5 [price]"))
    assert(e.getMessage.contains("price"))
  }
  test("rejects unknown attributes and a number compared with a string attribute, naming the attribute") {
    for ((query, attr) <- Seq(
        "SELECT * FROM S WHERE A as x FILTER x[height > 1]"     -> "height",
        "SELECT * FROM S WHERE A as x FILTER x[colour = 'red']" -> "colour",
        "SELECT * FROM S WHERE A as x FILTER x[name > 1]"       -> "name",
        "SELECT * FROM S WHERE A PARTITION BY [colour]"         -> "colour")) {
      val e = intercept[IllegalArgumentException](parse(query))
      assert(e.getMessage.contains(attr), query)
    }
  }
  test("rejects empty pattern") {
    assertThrows[IllegalArgumentException](parse("SELECT * FROM S WHERE"))
  }
}
