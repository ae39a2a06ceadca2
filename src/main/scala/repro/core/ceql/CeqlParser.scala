package repro.core.ceql

import repro.core.cel._
import repro.core.pred.{Atom, NumCmp, StrEq}
import scala.collection.mutable.ArrayBuffer

/** Hand-written recursive-descent parser for CEQL (§3 syntax, §2 examples,
  * appendix C stock queries). No external parser libraries are available
  * offline; tokens are read by one regex.
  *
  * Grammar (keywords case-insensitive):
  * {{{
  * query  := SELECT [ALL|NEXT|LAST|MAX] ('*' | var (',' var)*) FROM id (',' id)*
  *           WHERE cel [PARTITION BY '[' id ']' (',' '[' id ']')*]
  *           [WITHIN num (events|ms|seconds|minutes| '[' id ']')]
  *           [CONSUME BY (ANY|NONE)]
  * cel    := seq (FILTER fdisj)*
  * seq    := or (';' or)*
  * or     := post (OR post)*
  * post   := prim ('+' | AS id)*
  * prim   := id | '(' cel ')'
  * fdisj  := fconj (OR fconj)*        -- φ FILTER θ1 OR θ2 ≡ (φ F θ1) OR (φ F θ2)
  * fconj  := fterm (AND fterm)*       -- φ FILTER θ1 AND θ2 ≡ (φ F θ1) F θ2
  * fterm  := id '[' id op literal ']'
  * }}}
  */
object CeqlParser {

  // ---------------------------------------------------------------- tokenizer

  sealed trait Tok { def text: String }
  final case class TId(text: String)  extends Tok
  final case class TNum(text: String) extends Tok
  final case class TStr(text: String) extends Tok // contents, quotes stripped
  final case class TSym(text: String) extends Tok

  private val keywords = Set("SELECT", "FROM", "WHERE", "FILTER", "PARTITION",
    "BY", "WITHIN", "CONSUME", "AS", "OR", "AND")

  /** Whitespace, or by group an identifier, a number, a `'…'` or `"…"` string, a
    * symbol. The classes are `Char`'s `isWhitespace`, `isLetter`, `isLetterOrDigit`
    * and `isDigit`; `bmp` keeps them to single chars, as those tests are. */
  private val token = {
    val bmp = raw"&&[^\x{10000}-\x{10FFFF}]"
    (raw"\p{javaWhitespace}+|([\p{javaLetter}_$bmp][\p{javaLetterOrDigit}_'$bmp]*)" +
      raw"""|([\p{javaDigit}$bmp][\p{javaDigit}.$bmp]*)|'([^']*)'|"([^"]*)"|(<=|>=|!=|<>|==|[();\[\],+=<>*])""").r.pattern
  }
  private val kinds: Array[String => Tok] = Array(TId, TNum, TStr, TStr, TSym)

  def tokenize(s: String): Vector[Tok] = {
    val out = Vector.newBuilder[Tok]
    val m = token.matcher(s)
    var i = 0
    while (i < s.length) {
      if (!m.region(i, s.length).lookingAt()) throw new IllegalArgumentException(
        if (s(i) == '\'' || s(i) == '"') s"unterminated string at ${i + 1}" else s"unexpected character '${s(i)}' at $i")
      var g = 1
      while (g <= kinds.length && m.start(g) < 0) g += 1
      if (g <= kinds.length) out += kinds(g - 1)(m.group(g))
      i = m.end()
    }
    out.result()
  }

  // ------------------------------------------------------------------ parser

  def parse(query: String): CeqlQuery = new P(tokenize(query)).query()

  private final class P(toks: Vector[Tok]) {
    private var pos = 0
    private def peek: Option[Tok] = if (pos < toks.length) Some(toks(pos)) else None
    private def next(): Tok = { val t = toks(pos); pos += 1; t }
    private def fail(msg: String): Nothing =
      throw new IllegalArgumentException(s"$msg at token $pos (${peek.map(_.text).getOrElse("<eof>")})")
    private def isKw(t: Tok, kw: String): Boolean =
      t.isInstanceOf[TId] && t.text.equalsIgnoreCase(kw)
    private def expectKw(kw: String): Unit =
      if (peek.exists(isKw(_, kw))) pos += 1 else fail(s"expected $kw")
    private def expectSym(sym: String): Unit = peek match {
      case Some(TSym(`sym`)) => pos += 1
      case _                 => fail(s"expected '$sym'")
    }
    private def ident(): String = peek match {
      case Some(TId(t)) if !keywords.contains(t.toUpperCase) => pos += 1; t
      case _ => fail("expected identifier")
    }

    def query(): CeqlQuery = {
      expectKw("SELECT")
      val strategy = peek match {
        // strategy keyword only if followed by a select list
        case Some(TId(t)) if Set("ALL", "NEXT", "NXT", "LAST", "MAX").contains(t.toUpperCase) &&
            pos + 1 < toks.length && (toks(pos + 1) == TSym("*") || toks(pos + 1).isInstanceOf[TId]) =>
          pos += 1; Strategy.parse(t)
        case _ => Strategy.All
      }
      val selectVars: Option[Set[String]] = peek match {
        case Some(TSym("*")) => pos += 1; None
        case _ =>
          val vars = ArrayBuffer(ident())
          while (peek.contains(TSym(","))) { pos += 1; vars += ident() }
          Some(vars.toSet)
      }
      expectKw("FROM")
      val streams = ArrayBuffer(ident())
      while (peek.contains(TSym(","))) { pos += 1; streams += ident() }
      expectKw("WHERE")
      val where = cel()
      val partitionBy = ArrayBuffer.empty[String]
      if (peek.exists(isKw(_, "PARTITION"))) {
        pos += 1; expectKw("BY")
        partitionBy += bracketAttr()
        while (peek.contains(TSym(","))) { pos += 1; partitionBy += bracketAttr() }
      }
      val within: Window =
        if (peek.exists(isKw(_, "WITHIN"))) { pos += 1; windowSpec() } else NoWindow
      var consume: Consume = Consume.None
      if (peek.exists(isKw(_, "CONSUME"))) {
        pos += 1; expectKw("BY")
        consume = ident().toUpperCase match {
          case "ANY"  => Consume.Any
          case "NONE" => Consume.None
          case other  => fail(s"unknown consume policy $other")
        }
      }
      if (peek.nonEmpty) fail("trailing input")
      CeqlQuery(strategy, selectVars, streams.toSeq, where, partitionBy.toSeq, within, consume)
    }

    private def bracketAttr(): String = { expectSym("["); val a = ident(); expectSym("]"); a }

    private def windowSpec(): Window = {
      val n = peek match {
        case Some(TNum(t)) => pos += 1; t.toDouble
        case _             => fail("expected window size")
      }
      peek match {
        case Some(TSym("[")) => pos += 1; ident(); expectSym("]"); TimeWindow(n.toLong)
        case Some(TId(u)) =>
          pos += 1
          u.toLowerCase match {
            case "event" | "events"             => CountWindow(n.toLong)
            case "ms" | "millisecond" | "milliseconds" => TimeWindow(n.toLong)
            case "second" | "seconds"           => TimeWindow((n * 1000).toLong)
            case "minute" | "minutes"           => TimeWindow((n * 60000).toLong)
            case "hour" | "hours"               => TimeWindow((n * 3600000).toLong)
            case other                          => fail(s"unknown window unit $other")
          }
        case _ => fail("expected window unit")
      }
    }

    // CEL with FILTER at the lowest precedence so an unparenthesized
    // `WHERE a;b;c FILTER x[...]` filters the whole pattern (Fig 1, Q1).
    private def cel(): Cel = {
      var e = seqExpr()
      while (peek.exists(isKw(_, "FILTER"))) { pos += 1; e = filterDisj(e) }
      e
    }

    private def seqExpr(): Cel = {
      var e = orExpr()
      while (peek.contains(TSym(";"))) { pos += 1; e = CSeq(e, orExpr()) }
      e
    }

    private def orExpr(): Cel = {
      var e = postfix()
      while (peek.exists(isKw(_, "OR"))) { pos += 1; e = COr(e, postfix()) }
      e
    }

    private def postfix(): Cel = {
      var e = primary()
      var done = false
      while (!done) peek match {
        case Some(TSym("+"))             => pos += 1; e = CPlus(e)
        case Some(t) if isKw(t, "AS")    => pos += 1; e = CAs(e, ident())
        case _                           => done = true
      }
      e
    }

    private def primary(): Cel = peek match {
      case Some(TSym("(")) => pos += 1; val e = cel(); expectSym(")"); e
      case Some(TId(t)) if !keywords.contains(t.toUpperCase) => pos += 1; CAtom(t)
      case _ => fail("expected event type or '('")
    }

    /** `θ1 OR θ2` over an already-parsed pattern φ. */
    private def filterDisj(base: Cel): Cel = {
      var e = filterConj(base)
      while (peek.exists(isKw(_, "OR"))) { pos += 1; e = COr(e, filterConj(base)) }
      e
    }

    private def filterConj(base: Cel): Cel = {
      var e = applyTerm(base)
      while (peek.exists(isKw(_, "AND"))) { pos += 1; e = applyTerm(e) }
      e
    }

    private def applyTerm(base: Cel): Cel = {
      val v = ident()
      expectSym("[")
      val attr = ident()
      val op = peek match {
        case Some(TSym(o)) if Set("=", "==", "<", ">", "<=", ">=", "!=", "<>").contains(o) => pos += 1; o
        case _ => fail("expected comparison operator")
      }
      val atom: Atom = peek match {
        case Some(TStr(s)) =>
          pos += 1
          op match {
            case "=" | "==" => StrEq(attr, s)
            case other      => fail(s"string comparison only supports '=', got $other")
          }
        case Some(TNum(n)) =>
          pos += 1
          val normOp = op match { case "==" => "="; case "<>" => "!="; case o => o }
          NumCmp(attr, normOp, n.toDouble)
        case _ => fail("expected literal")
      }
      expectSym("]")
      CFilter(base, v, atom)
    }
  }
}
