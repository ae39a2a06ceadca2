package repro.core.ceql

import repro.core.Ev
import repro.core.cel.{Cel, CProj}

/** Selection strategies (§2, §6 "Selection strategies"). */
sealed trait Strategy extends Serializable
object Strategy {
  /** skip-till-any-match, the CEQL default (all matches). */
  case object All extends Strategy
  /** keep the earliest-starting run per state (approximation of NXT, see DESIGN.md §3). */
  case object Next extends Strategy
  /** keep the latest-starting run per state (approximation of LAST). */
  case object Last extends Strategy
  /** maximal matches: ALL maintenance + set-inclusion maximality filter. */
  case object Max extends Strategy

  def parse(s: String): Strategy = s.toUpperCase match {
    case "ALL" => All; case "NEXT" | "NXT" => Next
    case "LAST" => Last; case "MAX" => Max
    case other => throw new IllegalArgumentException(s"unknown strategy $other")
  }
}

/** The WITHIN clause: a window over stream positions (count-based, `n events`)
  * or over event time (`n ms|seconds|minutes` or `n [attr]`).
  */
sealed trait Window extends Serializable {
  /** The window bound ε in the engine's start-value units. */
  def epsilon: Long
  def countBased: Boolean
  /** The window clock at `ev`: its position under a count window, its timestamp under a time window. */
  def clock(ev: Ev): Long = if (countBased) ev.idx else ev.ts
}
final case class CountWindow(epsilon: Long) extends Window { val countBased = true }
final case class TimeWindow(epsilon: Long) extends Window { val countBased = false }
/** No WITHIN clause: every match qualifies. */
case object NoWindow extends Window { val epsilon: Long = Long.MaxValue / 4; val countBased = true }

/** Consumption policy (§6 Setup): `Any` forgets all partial matches once a
  * complex event fires — the policy used for every experiment in the paper.
  */
sealed trait Consume extends Serializable
object Consume {
  case object None extends Consume
  case object Any  extends Consume
}

/** A parsed CEQL query (§3 syntax):
  *
  * {{{
  * SELECT [strategy] <vars|*> FROM <streams>
  * WHERE <CEL> [PARTITION BY <attrs>] [WITHIN <t>] [CONSUME BY ANY]
  * }}}
  */
final case class CeqlQuery(
    strategy: Strategy,
    selectVars: Option[Set[String]],   // None = SELECT *
    streams: Seq[String],
    where: Cel,
    partitionBy: Seq[String],
    within: Window,
    consume: Consume,
) {
  /** SELECT-list applied as a CEL projection (π_L), per §3. */
  def pattern: Cel = selectVars match {
    case Some(vars) => CProj(where, vars)
    case None       => where
  }
}
