package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions.col
import repro.core.Ev
import repro.core.ceql.CeqlQuery
import repro.core.engine.{CompiledQuery, RunTable}
import repro.core.pred.Attr

/** One recognized complex event, flattened for DataFrame output.
  * `data` is the comma-joined ascending position list.
  */
final case class MatchRow(partKey: String, start: Long, end: Long, data: String)

/** Batch evaluation of a CEQL query over a Dataset of events, one run per
  * PARTITION BY key (§5.4), each going over its key's events in stream order,
  * one event at a time ([[MatchRows]]). Both kinds of query are one
  * clock-ordered scan per Spark partition:
  *
  *  - Placement. A query without PARTITION BY is a single run, so its stream
  *    is coalesced to one partition (`coalesce(1)` is narrow: nothing is
  *    shuffled, and the narrow work upstream of the query runs in that one
  *    task). A partitioned query is hash-partitioned on its PARTITION BY
  *    columns ([[repro.core.pred.Attr.column]]), so all of a key's events
  *    share a partition; Spark builds no key string.
  *  - Order. Each partition is sorted on the window clock alone: `idx` under
  *    a count window (or none), `ts, idx` under a time window. The scan's
  *    clock never falls, and a key's events are in stream order (under a
  *    time window, as long as the key's `ts` does not fall).
  *  - Runs. One [[RunTable]] per partition holds a run per key, the single
  *    engine's table, on a plan compiled once per task and shared by all the
  *    partition's keys.
  *
  * The scan drops a run once its window start has passed the run's last
  * event: every partial match of the run has expired by then. A dropped run
  * keeps no clock, so its key's order check lapses for the key's next event,
  * as after [[repro.core.engine.CoreEngine.restore]]; a key whose `ts` falls
  * within the window still fails the job. With no WITHIN clause nothing
  * expires, and a partition keeps every key's run, as the single engine does.
  */
object CoreBatch {

  def evaluate(events: Dataset[Ev], q: CeqlQuery, limit: Int = -1): Dataset[MatchRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    val plan = new CompiledQuery(q, limit)
    val placed =
      if (q.partitionBy.isEmpty) events.coalesce(1)
      else events.repartition(q.partitionBy.map(Attr.column): _*)
    val clock = if (q.within.countBased) Seq(col("idx")) else Seq(col("ts"), col("idx"))
    placed.sortWithinPartitions(clock: _*).mapPartitions { it =>
      new MatchRows(it, new RunTable(q, plan.engine))
    }
  }
}
