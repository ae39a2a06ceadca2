package repro.core.engine

import repro.core.{ComplexEvent, Ev}
import repro.core.cea.{Cea, Compiler}
import repro.core.ceql.{CeqlQuery, Strategy, Window}
import repro.core.pred.AtomRegistry
import scala.collection.mutable

/** Exponential reference evaluator: enumerates *every* run of the
  * nondeterministic CEA over the stream by DFS (semantics of §4, verbatim).
  * Ground truth for property tests; streams must stay tiny.
  */
object BruteForce {

  /** All complex events of `[[A]]^ε(S)` (deduplicated). */
  def evaluate(cea: Cea, reg: AtomRegistry, stream: IndexedSeq[Ev], window: Window): Set[ComplexEvent] = {
    val out = mutable.Set.empty[ComplexEvent]
    val masks = stream.map(ev => reg.mask(ev))
    for (start <- stream.indices) {
      val startVal = if (window.countBased) stream(start).idx else stream(start).ts
      def dfs(state: Int, k: Int, marked: List[Long]): Unit = {
        if (cea.finals.contains(state) && k > start) {
          val endVal = if (window.countBased) stream(k - 1).idx else stream(k - 1).ts
          if (endVal - startVal <= window.epsilon)
            out += ComplexEvent.of(stream(start).idx, stream(k - 1).idx, marked)
        }
        if (k < stream.length) {
          for (tr <- cea.bySource(state) if tr.guard.eval(masks(k))) {
            dfs(tr.to, k + 1, if (tr.mark) stream(k).idx :: marked else marked)
          }
        }
      }
      dfs(cea.q0, start, Nil)
    }
    out.toSet
  }

  /** Evaluate a full CEQL query (partition-by included; consume ignored —
    * use for consume-free comparisons). Applies the MAX filter per end
    * position when the strategy is MAX.
    */
  def evaluate(q: CeqlQuery, stream: IndexedSeq[Ev]): Set[ComplexEvent] = {
    val (cea, reg) = Compiler.compile(q.pattern)
    val subStreams: Seq[IndexedSeq[Ev]] =
      if (q.partitionBy.isEmpty) Seq(stream)
      else stream.groupBy(Engines.partKeyFn(q.partitionBy)).values.toSeq
    val all = subStreams.flatMap(s => evaluate(cea, reg, s, q.within)).toSet
    q.strategy match {
      case Strategy.Max =>
        all.groupBy(_.end).values.flatMap(g => Engines.maximalOnly(g.toList)).toSet
      case _ => all
    }
  }
}
