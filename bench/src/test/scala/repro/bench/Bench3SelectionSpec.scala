package repro.bench

import repro.harness.{Harness, Workloads}

/** T3 (Fig 8 right): selection strategies on A1;A2;A3 with A3 hidden, T=100.
  * CORE runs ALL/NEXT/LAST/MAX; baselines run their default strategy.
  *
  * Paper shapes: CORE ~10^6 e/s under every strategy; strategies help the
  * baselines (esp. SASE) but CORE stays ~2 OOM ahead.
  */
class Bench3SelectionSpec extends BenchBase {

  test("T3: selection strategies (no output)") {
    val table = Workloads.table("T3")
    val ms = Harness.runTable(table, 300000, Harness.budgetMs)
    val (core, others) = ms.partition(_.system.startsWith("CORE-"))

    println(Harness.table(table, ms))

    // (1) CORE's throughput is strategy-independent (same algorithm, §6).
    val coreThr = core.map(_.throughput)
    assert(coreThr.max / coreThr.min < 4.0, s"CORE strategies diverge: $coreThr")
    // (2) every CORE strategy beats every baseline.
    for (c <- core; o <- others)
      assert(c.throughput > o.throughput, s"${c.system} not ahead of ${o.system}")
  }
}
