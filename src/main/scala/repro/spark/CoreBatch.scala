package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.Ev
import repro.core.ceql.CeqlQuery
import repro.core.engine.{CompiledQuery, Engines}

/** One recognized complex event, flattened for DataFrame output.
  * `data` is the comma-joined ascending position list.
  */
final case class MatchRow(partKey: String, start: Long, end: Long, data: String)

/** Batch evaluation of a CEQL query over a Dataset of events: the PARTITION BY
  * clause maps to `groupByKey` (one run per key, §5.4) and the run goes over
  * each group's events in stream order. The plan is compiled once per task
  * and shared by the runs of all its keys.
  */
object CoreBatch {

  def evaluate(events: Dataset[Ev], q: CeqlQuery, limit: Int = -1): Dataset[MatchRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    val keyFn: Ev => String =
      if (q.partitionBy.nonEmpty) Engines.partKeyFn(q.partitionBy) else (_: Ev) => ""
    val plan = new CompiledQuery(q, limit)
    events.groupByKey(keyFn).flatMapGroups { (key: String, it: Iterator[Ev]) =>
      val engine = plan.engine(key)
      it.toArray.sortBy(_.idx).iterator
        .flatMap(engine.onEvent)
        .map(ce => MatchRow(key, ce.start, ce.end, ce.data.mkString(",")))
    }
  }

  /** Expand `data` ("p1,p2,...,pn") into long columns p1..pn — the shape the
    * DuckDB oracle joins produce for fixed-length patterns.
    */
  def positionsAsCols(matches: Dataset[MatchRow], n: Int): DataFrame = {
    val parts = split(col("data"), ",")
    val cols = (1 to n).map(i => element_at(parts, i).cast("long").as(s"p$i"))
    matches.select(cols: _*)
  }
}
