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

/** Batch evaluation of a CEQL query over a Dataset of events, one run per
  * PARTITION BY key (§5.4), each going over its key's events in stream order,
  * one event at a time ([[MatchRows]]). The plan is compiled once per task and
  * shared by the runs of all its keys.
  *
  *  - A query without PARTITION BY is a single run over the whole stream, so
  *    it is one ordered scan: `coalesce(1)`, `sortWithinPartitions("idx")` and
  *    one engine streaming through the sorted partition. Nothing is shuffled,
  *    no grouping key is built and the stream is never held in an array.
  *    `coalesce(1)` is narrow, so the narrow work upstream of the query (its
  *    scan, projections, filters) also runs in that one task.
  *  - A partitioned query goes through `groupByKey` on the key and
  *    `flatMapSortedGroups` on `idx`, whose sort orders each key's events.
  */
object CoreBatch {

  def evaluate(events: Dataset[Ev], q: CeqlQuery, limit: Int = -1): Dataset[MatchRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    val plan = new CompiledQuery(q, limit)
    if (q.partitionBy.isEmpty)
      events.coalesce(1).sortWithinPartitions("idx").mapPartitions { it =>
        new MatchRows("", plan.engine(""), it)
      }
    else
      events.groupByKey(Engines.partKeyFn(q.partitionBy)).flatMapSortedGroups(col("idx")) {
        (key: String, it: Iterator[Ev]) => new MatchRows(key, plan.engine(key), it)
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
