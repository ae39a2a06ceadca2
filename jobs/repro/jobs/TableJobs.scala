package repro.jobs

import repro.harness.{Harness, Workloads}

/** The table jobs: each runs one table of [[Workloads.tables]] through
  * [[Harness.runTable]] and prints it as markdown. These are plain JVM mains
  * (the engines are single-core, as in the paper §6); `StreamingDemo` is the
  * job that exercises the Spark dataflow layer.
  *
  * Usage: spark-submit --class repro.jobs.Table1SeqWithOutput <jar> [events] [budgetMs]
  * where `events` is the length of each row's base stream (default 300 000),
  * cycled for as long as a measurement runs, and `budgetMs` the time per
  * measurement (default `BENCH_MS`, else 1000).
  */
sealed abstract class TableJob(id: String) {
  def main(args: Array[String]): Unit = {
    val t = Workloads.table(id)
    val ms = Harness.runTable(t, args.lift(0).fold(300000)(_.toInt),
      args.lift(1).fold(Harness.budgetMs)(_.toLong))
    println(Harness.table(t, ms))
  }
}

/** T1 (Fig 7): sequence queries with output, n ∈ {3,5,7,9}, T = 100 events. */
object Table1SeqWithOutput extends TableJob("T1")

/** T2 (Fig 8 left): A1;A2;A3 with A3 hidden, T ∈ {50,100,150,200}. */
object Table2SeqNoOutput extends TableJob("T2")

/** T3 (Fig 8 right): selection strategies, A1;A2;A3 with A3 hidden, T = 100. */
object Table3Selection extends TableJob("T3")

/** T4 (Fig 9 left): iteration (K3, K5) and disjunction (D3, D5), T = 100. */
object Table4Operators extends TableJob("T4")

/** T5 (Fig 9 right): stock-market queries Q1–Q7 (SASE only Q1–Q3, §6). */
object Table5Stock extends TableJob("T5")
