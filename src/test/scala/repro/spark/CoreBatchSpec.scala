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
import repro.core.engine.Engines
import repro.core.TestUtil.{check, genCel, genTimedStream, query, runAll}
import repro.gen.StreamGen
import repro.harness.Workloads
import repro.spark.SqlOracle.{AtomSpec, NumCmp, StrEq}

/** CoreBatch (the Spark dataflow layer) checked against the DuckDB oracle:
  * fixed-length CEQL queries are n-way self-joins, so a wrong engine result
  * or a broken partition-by grouping shows up as a row diff. An unpartitioned
  * query is also checked against the single engine, and for its plan shape.
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

  test("property: a partitioned query gives exactly the single engine's rows, however the input is partitioned") {
    val genKeyed = for {
      evs <- genTimedStream(12)
      keys <- Gen.choose(2, 3)
      vs <- Gen.listOfN(evs.size, Gen.choose(1, keys))
    } yield evs.zip(vs).map { case (ev, v) => ev.copy(volume = 100.0 * v) }
    val keyFn = Engines.partKeyFn(Seq("volume"))
    check(forAll(genQuery(Seq("volume")), Gen.oneOf(-1, 10), genKeyed, Gen.long) { (q, limit, evs, seed) =>
      val single = Engines.core(q, limit)
      val expected = evs.flatMap(ev => single.onEvent(ev).map(ce => (keyFn(ev), ce.start, ce.end, ce.data.mkString(","))))
      Seq(1, 3, 8).forall { n =>
        CoreBatch.evaluate(scattered(evs, n, seed), q, limit).collect()
          .map(m => (m.partKey, m.start, m.end, m.data)).toSeq.sorted == expected.sorted
      }
    }, minTests = 30)
  }

  test("an unpartitioned query runs without a shuffle or a grouping key; a partitioned one keeps both") {
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
    assert(q3Shuffles > 0 && q3Keys > 0)
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
