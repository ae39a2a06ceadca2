package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.AppendColumnsExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.scalacheck.Gen
import org.scalacheck.Prop.forAll
import repro.{Oracle, SparkSpec}
import repro.core.Ev
import repro.core.ceql._
import repro.core.cel.{CAtom, Cel}
import repro.core.engine.{CompiledQuery, Engines, RunTable}
import repro.core.TestUtil.{check, genCel, genTimedStream, query, runAll}
import repro.gen.StreamGen
import repro.harness.Workloads
import repro.spark.SqlOracle.{AtomSpec, NumCmp, StrEq}

/** CoreBatch (the Spark dataflow layer) checked against the DuckDB oracle:
  * fixed-length CEQL queries are n-way self-joins, so a wrong engine result
  * or a broken partition-by grouping shows up as a row diff. Both kinds of
  * query are also checked against the single engine and for their plan shape,
  * and the scan's run table for what it holds and what it rejects.
  */
class CoreBatchSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val stock = StreamGen.stockStream(400)
  private lazy val stockDs = SparkStreams.fromArray(spark, stock)
  private lazy val stockDf = stockDs.toDF()

  test("Q2 (sequence + filters, time window) matches DuckDB") {
    val q = Workloads.stockQuery("Q2")
    val got = CoreBatch.positionsAsCols(CoreBatch.evaluate(stockDs, q), 4)
    val sql = SqlOracle.sequenceSql(
      Seq(
        AtomSpec(Seq("SELL"), Seq(StrEq("name", "MSFT"), NumCmp("price", ">", 26.0))),
        AtomSpec(Seq("BUY"), Seq(StrEq("name", "ORCL"), NumCmp("price", ">", 11.14))),
        AtomSpec(Seq("BUY"), Seq(StrEq("name", "CSCO"))),
        AtomSpec(Seq("SELL"), Seq(StrEq("name", "AMAT"), NumCmp("price", ">=", 18.92))),
      ),
      countEps = None, timeEps = Some(30000L))
    Oracle.assertEquivalent(got, sql, "events" -> stockDf)
  }

  test("Q4 (disjunction) matches DuckDB") {
    val q = Workloads.stockQuery("Q4")
    val got = CoreBatch.positionsAsCols(CoreBatch.evaluate(stockDs, q), 4)
    val sql = SqlOracle.sequenceSql(
      Seq(
        AtomSpec(Seq("SELL"), Seq(StrEq("name", "MSFT"))),
        AtomSpec(Seq("BUY", "SELL"), Seq(StrEq("name", "ORCL"))),
        AtomSpec(Seq("BUY", "SELL"), Seq(StrEq("name", "CSCO"))),
        AtomSpec(Seq("SELL"), Seq(StrEq("name", "AMAT"))),
      ),
      countEps = None, timeEps = Some(30000L))
    Oracle.assertEquivalent(got, sql, "events" -> stockDf)
  }

  test("Q3 without consumption (partition-by) matches DuckDB") {
    val q = Workloads.stockQuery("Q3").copy(consume = Consume.None)
    val got = CoreBatch.positionsAsCols(CoreBatch.evaluate(stockDs, q), 4)
    val sql = SqlOracle.sequenceSql(
      Seq(
        AtomSpec(Seq("SELL"), Seq(StrEq("name", "MSFT"))),
        AtomSpec(Seq("BUY"), Seq(StrEq("name", "ORCL"))),
        AtomSpec(Seq("BUY"), Seq(StrEq("name", "CSCO"))),
        AtomSpec(Seq("SELL"), Seq(StrEq("name", "AMAT"))),
      ),
      countEps = None, timeEps = Some(30000L), partitionBy = Seq("volume"))
    Oracle.assertEquivalent(got, sql, "events" -> stockDf)
  }

  test("count-window sequence on the synthetic RandomStream matches DuckDB") {
    val evs = StreamGen.randomStream(300, Seq("A1", "A2", "A3"))
    val ds = SparkStreams.fromArray(spark, evs)
    val q = Workloads.seqQuery(3, 20, consume = Consume.None)
    val got = CoreBatch.positionsAsCols(CoreBatch.evaluate(ds, q), 3)
    val sql = SqlOracle.sequenceSql(
      Seq(AtomSpec(Seq("A1")), AtomSpec(Seq("A2")), AtomSpec(Seq("A3"))),
      countEps = Some(20L), timeEps = None)
    Oracle.assertEquivalent(got, sql, "events" -> ds.toDF())
  }

  test("multi-attribute partition-by matches DuckDB") {
    val evs = StreamGen.stockStream(300)
    val ds = SparkStreams.fromArray(spark, evs)
    val q = repro.core.ceql.CeqlParser.parse(
      """SELECT * FROM S WHERE (SELL as a; BUY as b)
         PARTITION BY [name], [volume] WITHIN 60000 [stock_time]""")
    val got = CoreBatch.positionsAsCols(CoreBatch.evaluate(ds, q), 2)
    val sql = SqlOracle.sequenceSql(
      Seq(AtomSpec(Seq("SELL")), AtomSpec(Seq("BUY"))),
      countEps = None, timeEps = Some(60000L), partitionBy = Seq("name", "volume"))
    Oracle.assertEquivalent(got, sql, "events" -> ds.toDF())
  }

  test("CoreBatch agrees with the single-threaded engine") {
    val q = Workloads.stockQuery("Q1")
    val batch = CoreBatch.evaluate(stockDs, q).collect()
      .map(m => (m.start, m.end, m.data)).toSet
    val local = runAll(Engines.core(q), stock)
      .map(ce => (ce.start, ce.end, ce.data.mkString(","))).toSet
    assert(batch == local)
  }

  test("partitioned CoreBatch keys match engine partition keys") {
    val q = Workloads.stockQuery("Q3").copy(consume = Consume.None)
    val batch = CoreBatch.evaluate(stockDs, q).collect()
    val keyFn = Engines.partKeyFn(Seq("volume"))
    val byIdx = stock.map(e => e.idx -> e).toMap
    assert(batch.forall { m =>
      val ks = m.data.split(",").map(p => keyFn(byIdx(p.toLong))).toSet
      ks == Set(m.partKey)
    })
  }

  /** `evs` dealt in random order over `partitions` partitions. */
  private def scattered(evs: Seq[Ev], partitions: Int, seed: Long): Dataset[Ev] = {
    val spark0 = spark
    import spark0.implicits._
    val shuffled = new scala.util.Random(seed).shuffle(evs)
    spark0.createDataset(spark0.sparkContext.parallelize(shuffled, partitions))
  }

  private def genQuery(partitionBy: Seq[String]): Gen[CeqlQuery] = for {
    f <- genCel(2)
    w <- Gen.oneOf(Gen.const(NoWindow), Gen.choose(1L, 12L).map(CountWindow(_)), Gen.choose(0L, 12L).map(TimeWindow(_)))
    s <- Gen.oneOf(Strategy.All, Strategy.Max, Strategy.Next, Strategy.Last)
    c <- Gen.oneOf(Consume.None, Consume.Any)
  } yield query(f, w, s, c, partitionBy)

  test("property: an unpartitioned query gives exactly the single engine's rows, however the input is partitioned") {
    check(forAll(genQuery(Nil), Gen.oneOf(-1, 10), genTimedStream(12), Gen.long) { (q, limit, evs, seed) =>
      val single = Engines.core(q, limit)
      val expected = evs.flatMap(ev => single.onEvent(ev).map(ce => ("", ce.start, ce.end, ce.data.mkString(","))))
      Seq(1, 3, 8).forall { n =>
        CoreBatch.evaluate(scattered(evs, n, seed), q, limit).collect()
          .map(m => (m.partKey, m.start, m.end, m.data)).toSeq == expected
      }
    }, minTests = 30)
  }

  /** Streams of up to 40 events over 2–8 `volume` keys: under a window a key's run is dropped and the key comes back. */
  private val genKeyed = for {
    evs <- genTimedStream(40)
    keys <- Gen.choose(2, 8)
    vs <- Gen.listOfN(evs.size, Gen.choose(1, keys))
  } yield evs.zip(vs).map { case (ev, v) => ev.copy(volume = 100.0 * v) }

  /** The single engine's rows over `evs`, in stream order. */
  private def singleRows(q: CeqlQuery, limit: Int, evs: Seq[Ev]): Seq[(String, Long, Long, String)] = {
    val keyFn = Engines.partKeyFn(q.partitionBy)
    val single = Engines.core(q, limit)
    evs.flatMap(ev => single.onEvent(ev).map(ce => (keyFn(ev), ce.start, ce.end, ce.data.mkString(","))))
  }

  test("property: a run table's scan of a stream in clock order gives exactly the single engine's rows") {
    check(forAll(genQuery(Seq("volume")), Gen.oneOf(-1, 10), genKeyed) { (q, limit, evs) =>
      new MatchRows(evs.iterator, new RunTable(q, new CompiledQuery(q, limit).engine), () => ())
        .map(m => (m.partKey, m.start, m.end, m.data)).toSeq == singleRows(q, limit, evs)
    }, minTests = 1000)
  }

  test("property: a partitioned query gives exactly the single engine's rows, however the input is partitioned") {
    check(forAll(genQuery(Seq("volume")), Gen.oneOf(-1, 10), genKeyed, Gen.long) { (q, limit, evs, seed) =>
      val expected = singleRows(q, limit, evs)
      Seq(1, 3, 8).forall { n =>
        CoreBatch.evaluate(scattered(evs, n, seed), q, limit).collect()
          .map(m => (m.partKey, m.start, m.end, m.data)).toSeq.sorted == expected.sorted
      }
    }, minTests = 30)
  }

  test("an unpartitioned query runs without a shuffle or a grouping key; a partitioned one is shuffled on its columns, with no grouping key") {
    def nodes(q: CeqlQuery) = {
      val out = CoreBatch.evaluate(stockDs, q)
      out.collect()
      val plan = out.queryExecution.executedPlan
      // AdaptiveSparkPlanHelper.collect also searches the adaptive plan's query stages.
      (collect(plan) { case e: ShuffleExchangeExec => e }.size, collect(plan) { case a: AppendColumnsExec => a }.size)
    }
    val (q1Shuffles, q1Keys) = nodes(Workloads.stockQuery("Q1"))
    assert(q1Shuffles == 0 && q1Keys == 0)
    val (q3Shuffles, q3Keys) = nodes(Workloads.stockQuery("Q3"))
    assert(q3Shuffles > 0 && q3Keys == 0)
  }

  test("a scan's run table holds only the keys of the last window: at most 6 under a 5-event window") {
    // a fresh volume on every event: each key's run can be dropped 5 events later
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(5), partitionBy = Seq("volume"))
    val evs = StreamGen.randomStream(200, Seq("A", "B"), noise = 1).map(ev => ev.copy(volume = ev.idx.toDouble))
    val table = new RunTable(q, new CompiledQuery(q, -1).engine)
    var peak = 0
    val rows = new MatchRows(evs.iterator.map { ev => peak = math.max(peak, table.numRuns); ev }, table, () => ())
    assert(rows.isEmpty) // a key has one event: no match
    assert(peak == 6 && table.numRuns == 6, s"peak $peak, at the end ${table.numRuns}")
  }

  test("a scan's run table keys on values: volume 0.0 and -0.0 are two runs, whose rows carry their own keys") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(5), partitionBy = Seq("volume"))
    val evs = Seq(Ev(0, 0, "A", "", 0, 0.0), Ev(1, 1, "A", "", 0, -0.0), Ev(2, 2, "B", "", 0, -0.0), Ev(3, 3, "B", "", 0, 0.0))
    val table = new RunTable(q, new CompiledQuery(q, -1).engine)
    val rows = new MatchRows(evs.iterator, table, () => ()).map(m => (m.partKey, m.start, m.end, m.data)).toList
    assert(rows == List(("-0.0", 1L, 2L, "1,2"), ("0.0", 0L, 3L, "0,3")))
    assert(table.numRuns == 2)
  }

  test("a key whose ts falls within the window fails a partitioned job with the engine's out-of-order message") {
    val q = query(Cel.seqOfTypes("A", "B"), TimeWindow(30), partitionBy = Seq("volume"))
    val evs = (0 until 40).map(i => Ev(i, 10L * i, if (i % 2 == 0) "A" else "B", "", 0, 100.0 * (i % 3 + 1)))
    // key 100.0 holds idx 18 at ts 180 and idx 21, moved back from ts 210 to 175
    val bad = evs.updated(21, evs(21).copy(ts = 175))
    val err = intercept[Exception](CoreBatch.evaluate(scattered(bad, 3, 1L), q).collect())
    val msgs = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).map(_.getMessage).toSeq
    assert(msgs.exists(m => m != null && m.contains("out-of-order event for key '100.0'")), msgs.mkString("\n"))
    // the same stream in order runs
    assert(CoreBatch.evaluate(scattered(evs, 3, 1L), q).collect().nonEmpty)
  }

  test("distinct PARTITION BY value tuples are distinct runs, even when a value holds the key separator") {
    // joined without escaping, both keys would read "A|B|C": one run, and {0, 1} a match
    val q = query(Cel.seq(CAtom("C"), CAtom("B|C")), CountWindow(5), partitionBy = Seq("name", "type"))
    val evs = Seq(Ev(0, 0, "C", "A|B", 0, 0), Ev(1, 1, "B|C", "A", 0, 0))
    val keyFn = Engines.partKeyFn(q.partitionBy)
    assert(keyFn(evs(0)) != keyFn(evs(1)))
    assert(runAll(Engines.core(q), evs).isEmpty)
    assert(CoreBatch.evaluate(scattered(evs, 2, 1L), q).collect().isEmpty)
  }

  test("a duplicate idx in an unpartitioned input fails the job with the engine's out-of-order message") {
    val evs = StreamGen.randomStream(50, Seq("A1", "A2", "A3"))
    val ds = scattered((evs :+ evs(20)).toSeq, 3, 1L)
    val err = intercept[Exception](CoreBatch.evaluate(ds, Workloads.seqQuery(3, 20)).collect())
    val msgs = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).map(_.getMessage).toSeq
    assert(msgs.exists(m => m != null && m.contains("out-of-order event") && m.contains("idx 20")),
      msgs.mkString("\n"))
  }
}
