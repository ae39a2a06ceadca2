package repro.bench

import repro.harness.{Harness, Workloads}

/** T4 (Fig 9 left): iteration (K3 = A1;A2+;A3, K5) and disjunction
  * (D3 = A1;(A2 OR A2');A3, D5), window 100 events, with output.
  *
  * Paper shapes: CORE stable ~10^6 e/s across all four; baselines drop 2 OOM
  * when iteration is added (compare Esper/SASE on seq n=3 vs K3); SASE is
  * skipped on D3/D5 (no disjunction support).
  */
class Bench4OperatorsSpec extends BenchBase {

  test("T4: iteration and disjunction") {
    val table = Workloads.table("T4")
    val ms = Harness.runTable(table, 300000, Harness.budgetMs)

    println(Harness.table(table, ms))

    // (1) CORE is stable across operators.
    assert(spread(ms, "CORE") < 10.0, s"CORE not stable: ${spread(ms, "CORE")}")
    // (2) CORE leads every baseline on every config it runs.
    for (m <- ms if m.system != "CORE")
      assert(thr(ms, "CORE", m.config) > m.throughput,
        s"CORE not ahead of ${m.system} on ${m.config}")
  }
}
