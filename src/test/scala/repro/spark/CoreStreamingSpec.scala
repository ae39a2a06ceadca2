package repro.spark

import java.nio.file.Files
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core.Ev
import repro.core.ceql.{CeqlParser, CeqlQuery, Consume}
import repro.core.engine.{CoreEngine, Engines}
import repro.core.TestUtil._
import repro.gen.StreamGen
import repro.harness.Workloads

/** CORE as a Structured Streaming stateful operator (flatMapGroupsWithState):
  * partial matches must survive micro-batch boundaries via the per-key run
  * state, and the result must equal the batch evaluation. The codec itself is
  * tested in [[repro.core.RunStateSpec]].
  */
class CoreStreamingSpec extends SparkSpec {

  private def runStreaming(batches: Seq[Seq[Ev]], qname: String): Set[(String, Long, Long, String)] = {
    val spark0 = spark
    import spark0.implicits._
    implicit val sqlCtx = spark0.sqlContext
    val q = Workloads.stockQuery(qname).copy(consume = Consume.None)
    val input = MemoryStream[Ev]
    val matches = CoreStreaming.evaluate(input.toDS(), q)
    val ckpt = Files.createTempDirectory("core-ckpt").toString
    val sq = matches.writeStream
      .format("memory").queryName(s"m_$qname")
      .outputMode("append")
      .option("checkpointLocation", ckpt)
      .start()
    try {
      for (b <- batches) { input.addData(b); sq.processAllAvailable() }
    } finally sq.stop()
    spark0.table(s"m_$qname").as[MatchRow].collect()
      .map(m => (m.partKey, m.start, m.end, m.data)).toSet
  }

  private lazy val stock = StreamGen.stockStream(240)

  test("streaming matches equal batch matches (single partition, Q1)") {
    val batches = stock.grouped(40).map(_.toSeq).toSeq
    val got = runStreaming(batches, "Q1")
    val q = Workloads.stockQuery("Q1").copy(consume = Consume.None)
    val expected = runAll(Engines.core(q), stock)
      .map(ce => ("", ce.start, ce.end, ce.data.mkString(","))).toSet
    assert(got == expected)
    assert(got.nonEmpty || expected.isEmpty)
  }

  test("streaming matches equal batch matches (partition-by, Q3)") {
    val batches = stock.grouped(60).map(_.toSeq).toSeq
    val got = runStreaming(batches, "Q3")
    val q = Workloads.stockQuery("Q3").copy(consume = Consume.None)
    val expected = runAll(Engines.core(q), stock).map { ce =>
      val key = Engines.partKeyFn(Seq("volume"))(stock(ce.start.toInt))
      (key, ce.start, ce.end, ce.data.mkString(","))
    }.toSet
    assert(got == expected)
  }

  test("matches spanning micro-batch boundaries are found") {
    // A at the end of batch 1, B at the start of batch 2 — the partial match
    // must live in the key's run state between batches.
    val spark0 = spark
    import spark0.implicits._
    implicit val sqlCtx = spark0.sqlContext
    val q = CeqlParser.parse("SELECT * FROM S WHERE A1; A2 WITHIN 100 events")
    val input = MemoryStream[Ev]
    val matches = CoreStreaming.evaluate(input.toDS(), q)
    val ckpt = Files.createTempDirectory("core-ckpt2").toString
    val sq = matches.writeStream.format("memory").queryName("m_span")
      .outputMode("append").option("checkpointLocation", ckpt).start()
    try {
      input.addData(Seq(Ev(0, 0, "A1", "", 0, 0), Ev(1, 1, "B1", "", 0, 0)))
      sq.processAllAvailable()
      assert(spark0.table("m_span").count() == 0)
      input.addData(Seq(Ev(2, 2, "A2", "", 0, 0)))
      sq.processAllAvailable()
    } finally sq.stop()
    val got = spark0.table("m_span").as[MatchRow].collect().toSeq
    assert(got.map(m => (m.start, m.end, m.data)) == Seq((0L, 2L, "0,2")))
  }

  test("engine round-trips through java serialization mid-stream") {
    val q = query(repro.core.cel.Cel.seqOfTypes("A", "B"))
    val e1 = Engines.core(q).asInstanceOf[CoreEngine]
    stream("A", "C", "A").foreach(e1.onEvent)
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(e1); oos.close()
    val e2 = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[CoreEngine]
    val out = e2.onEvent(Ev(3, 3, "B", "NB", 30.0, 0.0))
    assert(out.map(ce => (ce.start, ce.data)).toSet ==
      Set((0L, List(0L, 3L)), (2L, List(2L, 3L))))
  }

  test("serialized state size stays bounded under a window") {
    // the per-key state the operator stores is the engine's run-state snapshot
    val q = query(repro.core.cel.Cel.seqOfTypes("A", "B", "C"),
      repro.core.ceql.CountWindow(50))
    val e = Engines.core(q).asInstanceOf[CoreEngine]
    val evs = (0 until 2000).map(i => Ev(i, i, if (i % 2 == 0) "A" else "B", "", 0, 0))
    var size1k = 0
    evs.zipWithIndex.foreach { case (ev, i) =>
      e.onEvent(ev)
      if (i == 999) size1k = e.snapshot().length
    }
    val size2k = e.snapshot().length
    // expired tECS nodes must have been dropped: state does not grow with
    // stream length, only with window content
    assert(size2k < size1k * 2, s"state grew: $size1k -> $size2k")
  }

  /** Matches of `q` over `evs` streamed in micro-batches cut at `cuts`, checkpoint in a fresh directory. */
  private def streamSplit(name: String, q: CeqlQuery, limit: Int, evs: Seq[Ev], cuts: Seq[Int]): Seq[MatchRow] = {
    val spark0 = spark
    import spark0.implicits._
    implicit val sqlCtx = spark0.sqlContext
    val input = MemoryStream[Ev]
    val sq = CoreStreaming.evaluate(input.toDS(), q, limit).writeStream
      .format("memory").queryName(name).outputMode("append")
      .option("checkpointLocation", Files.createTempDirectory("core-ckpt").toString).start()
    try {
      val bounds = (0 +: cuts :+ evs.size).distinct.sorted
      for (Seq(from, until) <- bounds.sliding(2)) { input.addData(evs.slice(from, until)); sq.processAllAvailable() }
    } finally sq.stop()
    spark0.table(name).as[MatchRow].collect().toSeq
  }

  test("property: random micro-batch splits equal one uninterrupted run per key") {
    val rnd = new scala.util.Random(17)
    val types = Array("A1", "A2", "A3", "B1")
    val evs = (0 until 300).map(i => Ev(i, 2L * i, types(rnd.nextInt(4)), s"K${rnd.nextInt(3)}", 0, 0))
    val cases = Seq(
      // as benchmarked: ANY consumption, limit 10, time window
      "split_any" -> ("SELECT * FROM S WHERE A1; A2; A3 PARTITION BY [name] WITHIN 30 [stock_time] CONSUME BY ANY", 10),
      // ALL with unlimited output over a count window
      "split_all" -> ("SELECT * FROM S WHERE A1; A2+; A3 PARTITION BY [name] WITHIN 20 events", -1),
      // MAX with ANY consumption
      "split_max" -> ("SELECT MAX * FROM S WHERE A1; A2+; A3 PARTITION BY [name] WITHIN 20 events CONSUME BY ANY", 10),
    )
    for ((name, (text, limit)) <- cases) {
      val q = CeqlParser.parse(text)
      val cuts = Seq.fill(rnd.nextInt(8) + 1)(rnd.nextInt(evs.length))
      val keyFn = Engines.partKeyFn(q.partitionBy)
      val single = Engines.core(q, limit)
      val expected = evs.flatMap(ev => single.onEvent(ev).map(ce =>
        (keyFn(ev), ce.start, ce.end, ce.data.mkString(","))))
      val got = streamSplit(name, q, limit, evs, cuts).map(m => (m.partKey, m.start, m.end, m.data))
      assert(got.sorted == expected.sorted, s"$name with cuts ${cuts.sorted}")
      assert(expected.nonEmpty, name)
    }
  }

  test("a late event in a later micro-batch fails the query, naming the key and both positions") {
    val q = CeqlParser.parse("SELECT * FROM S WHERE A1; A2 PARTITION BY [name] WITHIN 100 events")
    val err = intercept[Exception](streamSplit("m_late", q, -1,
      Seq(Ev(0, 0, "A1", "K", 0, 0), Ev(5, 5, "B1", "K", 0, 0), Ev(3, 3, "A2", "K", 0, 0)), Seq(2)))
    val msgs = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).map(_.getMessage).toSeq
    assert(msgs.exists(m => m != null && m.contains("'K'") && m.contains("idx 3") && m.contains("idx 5")),
      msgs.mkString("\n"))
  }

  test("a query without WITHIN is rejected before any plan is built") {
    val spark0 = spark
    import spark0.implicits._
    implicit val sqlCtx = spark0.sqlContext
    val q = CeqlParser.parse("SELECT * FROM S WHERE A1; A2 PARTITION BY [name]")
    val err = intercept[IllegalArgumentException](CoreStreaming.evaluate(MemoryStream[Ev].toDS(), q))
    assert(err.getMessage.contains("WITHIN") && err.getMessage.contains("grow without bound"), err.getMessage)
  }
}
