package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.Ev
import repro.core.ceql.{CeqlQuery, NoWindow}
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
  * (CER streams are ordered). Within a batch each key's events are sorted by
  * `idx` in memory, as `flatMapGroupsWithState` has no sorted form. An event
  * whose `idx` is not after the key's last one fails the query, as does one
  * whose `ts` falls within a batch under a time window (across batches that
  * goes unchecked: the state codec keeps no window start).
  *
  * The query must have a WITHIN clause: without one no partial match ever
  * expires, so a key's run state would grow without bound.
  */
object CoreStreaming {

  def evaluate(events: Dataset[Ev], q: CeqlQuery, limit: Int = -1): Dataset[MatchRow] = {
    require(q.within != NoWindow,
      "a streaming query needs a WITHIN clause: without a window no partial match expires, " +
      "so each key's run state would grow without bound")
    val spark = events.sparkSession
    import spark.implicits._
    val plan = new CompiledQuery(q, limit)
    events
      .groupByKey(Engines.partKeyFn(q.partitionBy))
      .flatMapGroupsWithState[Array[Byte], MatchRow](OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (key: String, it: Iterator[Ev], state: GroupState[Array[Byte]]) =>
          val engine = plan.engine(key)
          state.getOption.foreach(engine.restore)
          new MatchRows(it.toArray.sortBy(_.idx).iterator, _ => engine, () => state.update(engine.snapshot()))
      }
  }
}
