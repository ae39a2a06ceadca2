package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.Ev
import repro.core.ceql.CeqlQuery
import repro.core.engine.{CompiledQuery, Engines}

/** CORE as a Structured Streaming stateful operator.
  *
  * The PARTITION BY clause maps to the grouping key of
  * `flatMapGroupsWithState`. The plan is compiled once per task and shared by
  * every key the task runs (§5.4); the per-key state is only the key's run
  * state — active-state table, live tECS and window clock — in the
  * [[repro.core.engine.RunState]] codec. Partial matches thus survive across
  * micro-batches and each event is still processed once (the Algorithm-1
  * incremental guarantee carries over; nothing is recomputed from a buffer).
  *
  * A key's rows are produced lazily, one event at a time ([[MatchRows]]), and
  * the key's new state is stored when its row iterator is exhausted: Spark
  * writes a group's state to the store only once it has consumed the rows.
  *
  * Events must arrive in increasing `idx` order per key across micro-batches
  * (CER streams are ordered; within a batch we sort by idx). An event whose
  * `idx` is not after the key's last one fails the query.
  */
object CoreStreaming {

  def evaluate(events: Dataset[Ev], q: CeqlQuery, limit: Int = -1): Dataset[MatchRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    val keyFn: Ev => String =
      if (q.partitionBy.nonEmpty) Engines.partKeyFn(q.partitionBy) else (_: Ev) => ""
    val plan = new CompiledQuery(q, limit)
    events
      .groupByKey(keyFn)
      .flatMapGroupsWithState[Array[Byte], MatchRow](OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (key: String, it: Iterator[Ev], state: GroupState[Array[Byte]]) =>
          val engine = plan.engine(key)
          state.getOption.foreach(engine.restore)
          new MatchRows(key, engine, it.toArray.sortBy(_.idx).iterator,
            () => state.update(engine.snapshot()))
      }
  }
}
