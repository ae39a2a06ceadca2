package repro.bench

import repro.harness.{Harness, Workloads}

/** T5 (Fig 9 right): appendix-C stock queries Q1–Q7 over the synthetic stock
  * stream (30 s time window ≈ 100 in-window events), consume-on-match.
  *
  * Paper shapes: CORE stable ~10^6 e/s and ≈2 OOM ahead; filters/disjunction
  * hurt the baselines but not CORE; partition-by (Q3/Q6) slightly lowers CORE
  * and FlinkCEP but helps Esper/SASE; SASE runs only Q1–Q3.
  */
class Bench5StockSpec extends BenchBase {

  test("T5: stock market queries") {
    val table = Workloads.table("T5")
    val ms = Harness.runTable(table, 300000, Harness.budgetMs)

    println(Harness.table(table, ms))

    // (1) CORE is stable across all seven queries.
    assert(spread(ms, "CORE") < 20.0, s"CORE not stable: ${spread(ms, "CORE")}")
    // (2) CORE leads every baseline on every query it runs.
    for (m <- ms if m.system != "CORE")
      assert(thr(ms, "CORE", m.config) > m.throughput,
        s"CORE not ahead of ${m.system} on ${m.config}")
  }
}
