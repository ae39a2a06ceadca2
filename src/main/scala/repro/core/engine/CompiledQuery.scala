package repro.core.engine

import repro.core.cea.{Compiler, Determinizer}
import repro.core.ceql.CeqlQuery

/** The plan of a query — CEA, atom registry and determinizer — compiled once
  * and shared by the runs of every PARTITION BY key, as in the paper (§5.4).
  *
  * The determinizer is built on first use and never serialized, so each
  * deserialized copy (in Spark, each task) compiles the query once. It is
  * mutable and unsynchronized: a copy must not be used by two threads.
  */
final class CompiledQuery(q: CeqlQuery, limit: Int) extends Serializable {

  @transient lazy val det: Determinizer = {
    val (cea, reg) = Compiler.compile(q.pattern)
    new Determinizer(cea, reg)
  }

  /** A fresh run of the substream of `key`; PARTITION BY is not applied. */
  def engine(key: String): CoreEngine = new CoreEngine(det, q.within, q.strategy, q.consume, limit, key)
}
