package repro.spark

import repro.SparkSpec
import repro.gen.StreamGen

/** The Spark-side stream generators: schema, determinism, and agreement with
  * the JVM generators they mirror.
  */
class SparkStreamsSpec extends SparkSpec {

  test("fromArray round-trips the JVM stream exactly") {
    val evs = StreamGen.stockStream(200)
    val back = SparkStreams.fromArray(spark, evs).collect().sortBy(_.idx)
    assert(back.toSeq == evs.toSeq)
  }

  test("randomStream has the requested types and uniform-ish distribution") {
    val ds = SparkStreams.randomStream(spark, 8000, Seq("A1", "A2"))
    val counts = ds.groupBy("etype").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(counts.keySet == Set("A1", "A2", "B1", "B2", "B3", "B4", "B5", "B6"))
    counts.values.foreach(c => assert(math.abs(c - 1000.0) < 300, counts.toString))
  }

  test("randomStream is deterministic in the seed") {
    val a = SparkStreams.randomStream(spark, 500, Seq("A1"), seed = 5).collect().sortBy(_.idx)
    val b = SparkStreams.randomStream(spark, 500, Seq("A1"), seed = 5).collect().sortBy(_.idx)
    assert(a.toSeq == b.toSeq)
  }

  test("stockStream has valid fields and timestamps") {
    val evs = SparkStreams.stockStream(spark, 2000).collect()
    assert(evs.forall(e => e.etype == "BUY" || e.etype == "SELL"))
    assert(evs.forall(e => StreamGen.StockNames.contains(e.name)))
    assert(evs.forall(e => e.ts == e.idx * 300))
    assert(evs.forall(e => e.volume >= 100 && e.volume <= 5000 && e.volume % 100 == 0))
  }

  test("stockStream prices cross the filter thresholds") {
    val evs = SparkStreams.stockStream(spark, 2000).collect()
    assert(evs.exists(_.price > 26.0) && evs.exists(_.price <= 26.0))
  }

  test("asTable exposes the six scalar columns the oracle expects") {
    val df = SqlOracle.asTable(SparkStreams.stockStream(spark, 10))
    assert(df.columns.toSet == Set("idx", "ts", "etype", "name", "price", "volume"))
  }

  test("distributed evaluation over the distributed generator works end-to-end") {
    val ds = SparkStreams.randomStream(spark, 2000, Seq("A1", "A2", "A3"), seed = 9)
    val q = repro.harness.Workloads.seqQuery(3, 30, repro.core.ceql.Consume.None)
    val n = CoreBatch.evaluate(ds, q).count()
    assert(n > 0)
  }

  test("SynthData orders can be lifted into an event stream and queried") {
    // Reuse the provided TPC-H-lite generator as an event source: each order
    // becomes an event typed by its status, keyed by customer, priced by
    // total — then a CEQL pattern runs over it like any other stream.
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val events = repro.SynthData.orders(spark, sf = 0.001)
      .orderBy("o_orderkey")
      .select(
        (col("o_orderkey") - 1)  as "idx",
        (col("o_orderkey") - 1)  as "ts",
        col("o_orderstatus")     as "etype", // O / F / P as event types
        concat(lit("C"), col("o_custkey") % 10) as "name",
        col("o_totalprice")      as "price",
        (col("o_custkey") % 5).cast("double") as "volume",
      ).as[repro.core.Ev]
    val q = repro.core.ceql.CeqlParser.parse(
      "SELECT * FROM Orders WHERE O as a; P as b FILTER a[price > 250000] WITHIN 20 events")
    val got = SqlOracle.positionsAsCols(CoreBatch.evaluate(events, q), 2)
    val sql = SqlOracle.sequenceSql(
      Seq(SqlOracle.AtomSpec(Seq("O"), Seq(SqlOracle.NumCmp("price", ">", 250000))),
          SqlOracle.AtomSpec(Seq("P"))),
      countEps = Some(20L), timeEps = None)
    repro.Oracle.assertEquivalent(got, sql, "events" -> events.toDF())
  }
}
