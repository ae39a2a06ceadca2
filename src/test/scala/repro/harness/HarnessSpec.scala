package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Ev
import repro.core.engine.{Engines, StreamEngine}
import repro.core.tecs.MatchSink
import repro.gen.StreamGen

/** The measurement harness itself: budget handling, stream exhaustion,
  * derived throughputs, table rendering; and the table catalog it runs.
  */
class HarnessSpec extends AnyFunSuite {

  private val q = Workloads.seqQuery(3, 50)
  private val evs = StreamGen.randomStream(20000, Workloads.seqTypes(3))

  test("measure processes the whole stream if the budget allows") {
    val m = Harness.measure("core", "t", Engines.core(q, 10), evs.take(500).iterator, budgetMs = 10000)
    assert(m.events == 500)
    assert(m.seconds > 0)
  }

  test("measure stops at the wall-clock budget") {
    val slowStream = StreamGen.cycled(evs, Long.MaxValue / 2) // effectively infinite
    val m = Harness.measure("core", "t", Engines.core(q, 10), slowStream, budgetMs = 150)
    assert(m.seconds < 5.0) // stopped well before the infinite stream ended
    assert(m.events > 0)
  }

  test("measure checks its budget after every event") {
    val slow = new StreamEngine {
      def onEvent(ev: Ev, sink: MatchSink): Int = { Thread.sleep(2); 0 }
      def enumNanos: Long = 0
    }
    val m = Harness.measure("slow", "t", slow, StreamGen.cycled(evs, Long.MaxValue / 2), budgetMs = 20)
    assert(m.events < 20, s"${m.events} events of 2 ms each in a 20 ms budget")
  }

  test("throughput fields are consistent") {
    val m = Measurement("s", "c", events = 1000, matches = 10, seconds = 2.0,
      enumSeconds = 0.5, stateKB = 0)
    assert(m.throughput == 500.0)
    assert(math.abs(m.updateThroughput - 1000 / 1.5) < 1e-9)
    assert(m.enumThroughput == 20.0)
  }

  test("zero matches gives zero enum throughput") {
    val m = Measurement("s", "c", 100, 0, 1.0, 0.0, 0)
    assert(m.enumThroughput == 0.0)
  }

  test("table renders all requested columns") {
    val m = Measurement("core", "n=3", 100, 5, 1.0, 0.1, 42.0)
    val basic = Harness.table(Workloads.Table("T", "T", Nil), Seq(m))
    assert(basic.contains("| core | n=3 | 100 | 5 |"))
    val full = Harness.table(Workloads.Table("T", "T", Nil, stateAndSplit = true), Seq(m))
    assert(full.contains("update e/s") && full.contains("peak state KB"))
    assert(full.contains("42.0"))
  }

  test("matches are counted") {
    val m = Harness.measure("core", "t", Engines.core(q, 10), evs.iterator, budgetMs = 2000)
    assert(m.matches > 0) // A1;A2;A3 fires on this stream
  }

  test("the catalog holds T1–T5 with the paper's configs; SASE sits out disjunction only") {
    assert(Workloads.tables.map(_.id) == Seq("T1", "T2", "T3", "T4", "T5"))
    def configs(id: String) = Workloads.table(id).rows.map(_.config)
    assert(configs("T1") == Seq("n=3", "n=5", "n=7", "n=9"))
    assert(configs("T2") == Seq("T=50", "T=100", "T=150", "T=200"))
    assert(configs("T3") == Seq("T=100"))
    assert(configs("T4") == Seq("K3", "K5", "D3", "D5"))
    assert(configs("T5") == (1 to 7).map(i => s"Q$i"))
    assert(Workloads.table("T3").rows.head.systems.map(_._1) == Seq("CORE-All", "CORE-Next",
      "CORE-Last", "CORE-Max", "SASE-default", "Esper-default", "FlinkCEP-default"))
    val withoutSase = for {
      t <- Workloads.tables
      r <- t.rows if !r.systems.exists(_._1.startsWith("SASE"))
    } yield r.config
    assert(withoutSase == Seq("D3", "D5", "Q4", "Q5", "Q6", "Q7"))
  }

  test("T1's state column is partial-match state: baselines hold > 10x CORE's at n=7") {
    val ms = Harness.runTable(Workloads.table("T1"), 20000, 60)
    val at7 = ms.filter(_.config == "n=7").map(m => m.system -> m.stateKB).toMap
    for (sys <- Seq("SASE", "Esper", "FlinkCEP"))
      assert(at7(sys) > 10 * at7("CORE"), at7.toString)
  }
}
