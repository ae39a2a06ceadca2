package repro.core.engine

import repro.core.cea.{Compiler, Determinizer}
import repro.core.ceql.CeqlQuery

/** The plan of a query — CEA, atom registry and determinizer — compiled once
  * and shared by the runs of every PARTITION BY key, as in the paper (§5.4).
  * It is the only place a query is compiled and the only factory of
  * [[CoreEngine]] runs; the baselines (`repro.baselines`) run on it too, and
  * read the CEA and registry through [[det]].
  *
  * Its Java form is the query and the output limit. The determinizer is built
  * on first use in each copy and never serialized, so each deserialized copy
  * (in Spark, each task) compiles the query once. `prebuilt` hands in a
  * determinizer already compiled from `query`, so that its caller can time the
  * compilation or step the determinizer itself. The determinizer is mutable
  * and unsynchronized: a copy must not be used by two threads.
  */
final class CompiledQuery(val query: CeqlQuery, val limit: Int, prebuilt: Option[Determinizer] = None)
    extends Serializable {

  @transient private var built: Determinizer = prebuilt.orNull

  def det: Determinizer = {
    if (built == null) {
      val (cea, reg) = Compiler.compile(query.pattern)
      built = new Determinizer(cea, reg)
    }
    built
  }

  /** A fresh run of the substream of `key`; PARTITION BY is not applied. */
  def engine(key: String): CoreEngine = new CoreEngine(this, key)
}
