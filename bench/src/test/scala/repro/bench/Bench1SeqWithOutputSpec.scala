package repro.bench

import repro.harness.{Harness, Workloads}

/** T1 (Fig 7): sequence queries A1;…;An with output, n ∈ {3,5,7,9}, window
  * 100 events, consume-on-match, ≤10 outputs/event (FlinkCEP 1).
  *
  * Paper shapes: CORE ~10^6 e/s, stable (only linear degradation in n);
  * SASE ahead of CORE at n=3,5 but degrading exponentially; Esper/FlinkCEP
  * 1–3 OOM below CORE; CORE memory flat, baselines' memory grows.
  */
class Bench1SeqWithOutputSpec extends BenchBase {

  test("T1: sequence queries with output") {
    val table = Workloads.table("T1")
    val ms = Harness.runTable(table, 300000, Harness.budgetMs)

    println(Harness.table(table, ms))

    // Qualitative claims (generous bounds; see EXPERIMENTS.md for numbers):
    // (1) CORE is stable in n — no exponential cliff.
    assert(spread(ms, "CORE") < 10.0, s"CORE not stable: ${spread(ms, "CORE")}")
    // (2) CORE beats every baseline at n=9.
    for (sys <- Seq("SASE", "Esper", "FlinkCEP"))
      assert(thr(ms, "CORE", "n=9") > thr(ms, sys, "n=9"), s"CORE not ahead of $sys at n=9")
    // (3) SASE degrades much faster than CORE as n grows.
    val coreDrop = thr(ms, "CORE", "n=3") / thr(ms, "CORE", "n=9")
    val saseDrop = thr(ms, "SASE", "n=3") / thr(ms, "SASE", "n=9")
    assert(saseDrop > 2 * coreDrop, s"SASE drop $saseDrop vs CORE drop $coreDrop")
  }
}
