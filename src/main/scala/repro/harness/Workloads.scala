package repro.harness

import repro.baselines.Baselines
import repro.core.Ev
import repro.core.cel._
import repro.core.ceql._
import repro.core.engine.{Engines, StreamEngine}
import repro.gen.StreamGen

/** The paper's benchmark queries (§6 + appendix C) and the tables T1–T5 built
  * from them, shared by jobs, benches, and tests.
  */
object Workloads {

  /** One configuration of a table: its label, its base stream (built for a
    * given length only when the table runs) and the systems measured on it.
    */
  final case class TableRow(config: String, stream: Int => Array[Ev],
                            systems: Seq[(String, () => StreamEngine)])

  /** One of the evaluation's tables (§6, Figs 7–9). `stateAndSplit` adds
    * Fig 7's extra columns: peak partial-match state (measured in a separate
    * pass) and the update / enumeration throughput split.
    */
  final case class Table(id: String, title: String, rows: Seq[TableRow],
                         stateAndSplit: Boolean = false)

  /** `SELECT * FROM RandomStream WHERE A1; ...; An WITHIN T` (§6, Fig 7/8). */
  def seqQuery(n: Int, window: Long, consume: Consume = Consume.Any): CeqlQuery =
    CeqlQuery(Strategy.All, None, Seq("RandomStream"),
      Cel.seqOfTypes((1 to n).map(i => s"A$i"): _*),
      Nil, CountWindow(window), consume)

  /** Event types A1..An (for stream generation). */
  def seqTypes(n: Int): Seq[String] = (1 to n).map(i => s"A$i")

  /** K3 := A1;A2+;A3 and K5 := A1;A2+;A3;A4+;A5 (Fig 9 left). */
  def kleeneQuery(n: Int, window: Long): CeqlQuery = {
    require(n == 3 || n == 5)
    val parts: Seq[Cel] = (1 to n).map(i => if (i % 2 == 0) CPlus(CAtom(s"A$i")) else CAtom(s"A$i"))
    CeqlQuery(Strategy.All, None, Seq("RandomStream"), Cel.seq(parts: _*), Nil,
      CountWindow(window), Consume.Any)
  }

  /** D3 := A1;(A2 OR A2');A3 and D5 analogously (Fig 9 left). */
  def disjQuery(n: Int, window: Long): CeqlQuery = {
    require(n == 3 || n == 5)
    val parts: Seq[Cel] = (1 to n).map(i =>
      if (i % 2 == 0) COr(CAtom(s"A$i"), CAtom(s"A$i'")) else CAtom(s"A$i"))
    CeqlQuery(Strategy.All, None, Seq("RandomStream"), Cel.seq(parts: _*), Nil,
      CountWindow(window), Consume.Any)
  }

  def disjTypes(n: Int): Seq[String] =
    (1 to n).flatMap(i => if (i % 2 == 0) Seq(s"A$i", s"A$i'") else Seq(s"A$i"))

  /** Appendix-C stock queries Q1–Q7, as CEQL text (exercises the parser). */
  val stockQueryTexts: Map[String, String] = Map(
    "Q1" -> """SELECT * FROM S
      WHERE (SELL as msft; BUY as oracle; BUY as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND oracle[name = 'ORCL'] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT']
      WITHIN 30000 [stock_time]""",
    "Q2" -> """SELECT * FROM S
      WHERE (SELL as msft; BUY as oracle; BUY as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND msft[price > 26.0] AND
      oracle[name = 'ORCL'] AND oracle[price > 11.14] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT'] AND amat[price >= 18.92]
      WITHIN 30000 [stock_time]""",
    "Q3" -> """SELECT * FROM S
      WHERE (SELL as msft; BUY as oracle; BUY as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND oracle[name = 'ORCL'] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT']
      PARTITION BY [volume]
      WITHIN 30000 [stock_time]
      CONSUME BY ANY""",
    "Q4" -> """SELECT * FROM S
      WHERE (SELL as msft; (BUY OR SELL) as oracle; (BUY OR SELL) as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND oracle[name = 'ORCL'] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT']
      WITHIN 30000 [stock_time]""",
    "Q5" -> """SELECT * FROM S
      WHERE (SELL as msft; (BUY OR SELL) as oracle; (BUY OR SELL) as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND msft[price > 26.0] AND
      oracle[name = 'ORCL'] AND oracle[price > 11.14] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT'] AND amat[price >= 18.92]
      WITHIN 30000 [stock_time]""",
    "Q6" -> """SELECT * FROM S
      WHERE (SELL as msft; (BUY OR SELL) as oracle; (BUY OR SELL) as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND oracle[name = 'ORCL'] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT']
      PARTITION BY [volume]
      WITHIN 30000 [stock_time]
      CONSUME BY ANY""",
    // Q7's full text is not in the paper; §6 describes it as
    // SELL; (BUY OR SELL)+; SELL — disjunction under iteration.
    "Q7" -> """SELECT * FROM S
      WHERE (SELL as first; (BUY OR SELL)+ as mid; SELL as last_)
      WITHIN 30000 [stock_time]""",
  )

  def stockQuery(name: String): CeqlQuery =
    repro.core.ceql.CeqlParser.parse(stockQueryTexts(name))

  /** All four systems as (name, engine-factory) pairs. Per the paper's setup,
    * the per-event output limit is 10 except FlinkCEP (1).
    */
  def systems(q: CeqlQuery, limit: Int = 10): Seq[(String, () => StreamEngine)] = Seq(
    "CORE"     -> (() => Engines.core(q, limit)),
    "SASE"     -> (() => Baselines.sase(q, limit)),
    "Esper"    -> (() => Baselines.esper(q, limit)),
    "FlinkCEP" -> (() => Baselines.flink(q, 1)),
  )

  /** SASE has no disjunction (§6), so it sits out every query that uses one. */
  private def withoutSase(systems: Seq[(String, () => StreamEngine)]) =
    systems.filterNot(_._1 == "SASE")

  /** RandomStream over A1, A2 and noise: A3 of `A1;A2;A3` never occurs. */
  private def a3Hidden(n: Int): Array[Ev] = StreamGen.randomStream(n, Seq("A1", "A2"))

  /** Tables T1–T5: every bench and table job runs these through
    * [[Harness.runTable]]. All queries consume by any, as in the paper's setup.
    */
  lazy val tables: Seq[Table] = Seq(
    Table("T1", "T1 — sequence queries with output (T=100 events)",
      Seq(3, 5, 7, 9).map(n =>
        TableRow(s"n=$n", StreamGen.randomStream(_, seqTypes(n)), systems(seqQuery(n, 100)))),
      stateAndSplit = true),
    Table("T2", "T2 — sequence query without output (A3 hidden)",
      Seq(50L, 100L, 150L, 200L).map(t => TableRow(s"T=$t", a3Hidden, systems(seqQuery(3, t))))),
    Table("T3", "T3 — selection strategies (A3 hidden, T=100)", {
      val q = seqQuery(3, 100)
      val core = Seq(Strategy.All, Strategy.Next, Strategy.Last, Strategy.Max).map(s =>
        s"CORE-$s" -> (() => Engines.core(q.copy(strategy = s), 10)))
      val others = systems(q).drop(1).map { case (sys, mk) => s"$sys-default" -> mk }
      Seq(TableRow("T=100", a3Hidden, core ++ others))
    }),
    Table("T4", "T4 — iteration and disjunction (T=100)", Seq(
      TableRow("K3", StreamGen.randomStream(_, seqTypes(3)), systems(kleeneQuery(3, 100))),
      TableRow("K5", StreamGen.randomStream(_, seqTypes(5)), systems(kleeneQuery(5, 100))),
      TableRow("D3", StreamGen.randomStream(_, disjTypes(3)), withoutSase(systems(disjQuery(3, 100)))),
      TableRow("D5", StreamGen.randomStream(_, disjTypes(5)), withoutSase(systems(disjQuery(5, 100)))),
    )),
    Table("T5", "T5 — stock market queries (WITHIN 30s)", (1 to 7).map { i =>
      val all = systems(stockQuery(s"Q$i").copy(consume = Consume.Any))
      TableRow(s"Q$i", StreamGen.stockStream(_), if (i <= 3) all else withoutSase(all))
    }),
  )

  def table(id: String): Table =
    tables.find(_.id == id).getOrElse(throw new NoSuchElementException(s"no table $id"))
}
