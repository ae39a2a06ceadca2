package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Workloads

/** The baselines under the protocol the tables run (§6 setup): at most 10
  * outputs per event (FlinkCEP: 1) and `CONSUME BY ANY`. The baselines emit
  * one complex event per accepting run, so on an ambiguous formula a complex
  * event can repeat and their counts can differ from CORE's; no table query is
  * ambiguous, and this checks that they count exactly as CORE does on each.
  */
class BaselineProtocolSpec extends AnyFunSuite {

  test("on every T1–T5 row, each baseline emits CORE's number of outputs per event (FlinkCEP: at most one), none repeated") {
    for (t <- Workloads.tables; row <- t.rows) {
      val (coreName, mkCore) = row.systems.head
      assert(coreName.startsWith("CORE"), coreName)
      val core = mkCore()
      val baselines = row.systems.collect {
        case (name, mk) if !name.startsWith("CORE") => (name, mk())
      }
      assert(baselines.nonEmpty, s"${t.id} ${row.config}")
      for (ev <- row.stream(3000)) {
        val want = core.onEvent(ev).size
        for ((name, e) <- baselines) {
          val out = e.onEvent(ev)
          val expected = if (name.startsWith("FlinkCEP")) math.min(1, want) else want
          assert(out.size == expected && out.distinct.size == out.size,
            s"${t.id} ${row.config} $name at idx ${ev.idx}: ${out.size} outputs, CORE $want")
        }
      }
    }
  }
}
