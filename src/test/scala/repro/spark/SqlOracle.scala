package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.{col, element_at, split}
import repro.core.Ev

/** Builds DuckDB SQL equivalent to a *fixed-length* CEQL pattern
  * (sequence of atoms/disjunctions with per-variable filters, a window, and
  * optional PARTITION BY): under skip-till-any-match, such a query is exactly
  * an n-way self-join on positions. Used with `repro.Oracle.assertEquivalent`
  * to check CoreBatch results against DuckDB. (Kleene `+` is not expressible
  * as a fixed join — those queries are checked against BruteForce instead.)
  *
  * The oracle loads every column as VARCHAR, so numeric comparisons cast.
  */
object SqlOracle {

  sealed trait Cond { def sql(alias: String): String }
  final case class StrEq(attr: String, value: String) extends Cond {
    def sql(a: String): String = s"$a.$attr = '$value'"
  }
  final case class NumCmp(attr: String, op: String, value: Double) extends Cond {
    def sql(a: String): String = s"CAST($a.$attr AS DOUBLE) $op $value"
  }

  /** One position of the pattern: the event type alternatives (disjunction)
    * plus the filters on the variable bound at this position.
    */
  final case class AtomSpec(types: Seq[String], conds: Seq[Cond] = Nil)

  /** Events as a plain DataFrame with all-scalar columns, for the oracle. */
  def asTable(events: Dataset[Ev]): DataFrame = events.toDF()

  /** Expand `data` ("p1,p2,...,pn") into long columns p1..pn — the shape the
    * oracle's joins produce for fixed-length patterns.
    */
  def positionsAsCols(matches: Dataset[MatchRow], n: Int): DataFrame = {
    val parts = split(col("data"), ",")
    val cols = (1 to n).map(i => element_at(parts, i).cast("long").as(s"p$i"))
    matches.select(cols: _*)
  }

  /** SQL over a table `events(idx, ts, etype, name, price, volume)` returning
    * columns p1..pn = matched positions.
    *
    * @param countEps  WITHIN n events (over idx), if set
    * @param timeEps   WITHIN n ms (over ts), if set
    * @param partitionBy  attributes that must be equal across all positions
    */
  def sequenceSql(atoms: Seq[AtomSpec], countEps: Option[Long], timeEps: Option[Long],
                  partitionBy: Seq[String] = Nil, table: String = "events"): String = {
    val n = atoms.size
    def idx(i: Int) = s"CAST(e$i.idx AS BIGINT)"
    def ts(i: Int)  = s"CAST(e$i.ts AS BIGINT)"
    val select = (1 to n).map(i => s"${idx(i)} AS p$i").mkString(", ")
    val from   = (1 to n).map(i => s"$table e$i").mkString(", ")
    val typeConds = atoms.zipWithIndex.map { case (a, k) =>
      val i = k + 1
      if (a.types.size == 1) s"e$i.etype = '${a.types.head}'"
      else s"e$i.etype IN (${a.types.map(t => s"'$t'").mkString(", ")})"
    }
    val filterConds = atoms.zipWithIndex.flatMap { case (a, k) => a.conds.map(_.sql(s"e${k + 1}")) }
    val orderConds  = (1 until n).map(i => s"${idx(i)} < ${idx(i + 1)}")
    val windowConds =
      countEps.map(e => s"${idx(n)} - ${idx(1)} <= $e").toSeq ++
      timeEps.map(e => s"${ts(n)} - ${ts(1)} <= $e").toSeq
    val partConds = partitionBy.flatMap(attr => (1 until n).map(i => s"e$i.$attr = e${i + 1}.$attr"))
    val where = (typeConds ++ filterConds ++ orderConds ++ windowConds ++ partConds).mkString("\n  AND ")
    s"SELECT $select\nFROM $from\nWHERE $where"
  }
}
