package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.forAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TestUtil._
import repro.core.pred._
import scala.collection.immutable.BitSet

/** Atomic predicates, the registry, and bit-vector evaluation (§5.4). */
class PredSpec extends AnyFunSuite {

  private val ev = Ev(7, 700, "SELL", "MSFT", 26.5, 300.0)

  test("TypeIs") {
    assert(TypeIs("SELL").eval(ev) && !TypeIs("BUY").eval(ev))
  }

  test("StrEq on name and type") {
    assert(StrEq("name", "MSFT").eval(ev))
    assert(!StrEq("name", "ORCL").eval(ev))
    assert(StrEq("type", "SELL").eval(ev))
  }

  test("NumCmp all operators") {
    assert(NumCmp("price", ">", 26.0).eval(ev))
    assert(NumCmp("price", ">=", 26.5).eval(ev))
    assert(NumCmp("price", "<", 27.0).eval(ev))
    assert(NumCmp("price", "<=", 26.5).eval(ev))
    assert(NumCmp("price", "=", 26.5).eval(ev))
    assert(NumCmp("price", "!=", 27.0).eval(ev))
    assert(!NumCmp("price", ">", 26.5).eval(ev))
  }

  test("NumCmp on volume, ts, idx, stock_time") {
    assert(NumCmp("volume", "=", 300.0).eval(ev))
    assert(NumCmp("ts", "=", 700.0).eval(ev))
    assert(NumCmp("stock_time", "=", 700.0).eval(ev))
    assert(NumCmp("idx", "=", 7.0).eval(ev))
  }

  test("unknown numeric attribute throws") {
    assertThrows[IllegalArgumentException](NumCmp("height", ">", 1.0).eval(ev))
  }

  test("unknown comparison operator throws") {
    assertThrows[IllegalArgumentException](NumCmp("price", "~", 1.0).eval(ev))
  }

  test("Attr.str falls back to numeric rendering") {
    assert(Attr.str(ev, "volume") == "300.0")
    assert(Attr.str(ev, "name") == "MSFT")
  }

  test("registry interns duplicates to the same index") {
    val reg = new AtomRegistry
    val i1 = reg.intern(TypeIs("SELL"))
    val i2 = reg.intern(NumCmp("price", ">", 10.0))
    val i3 = reg.intern(TypeIs("SELL"))
    assert(i1 == i3 && i1 != i2 && reg.size == 2)
  }

  test("bit vector has exactly the satisfied atoms") {
    val reg = new AtomRegistry
    val a = reg.intern(TypeIs("SELL"))
    val b = reg.intern(TypeIs("BUY"))
    val c = reg.intern(NumCmp("price", ">", 20.0))
    assert(BitSet.fromBitMask(reg.mask(ev)) == BitSet(a, c))
  }

  test("PredExpr evaluation over bit vectors") {
    // A guard is the AND of its atoms; the empty guard is TRUE.
    val bits = BitSet(0, 2, 70).toBitMask
    def guard(atoms: Int*) = atoms.foldLeft(Guard.True)(_ and _)
    assert(guard(0).eval(bits) && !guard(1).eval(bits))
    assert(guard(0, 2).eval(bits) && guard(2, 70).eval(bits) && guard(0, 0).eval(bits))
    assert(!guard(0, 1).eval(bits) && !guard(1, 2).eval(bits) && !guard(0, 2, 71).eval(bits))
    assert(Guard.True.eval(bits) && Guard.True.eval(new Array[Long](1)))
  }

  private val genEv: Gen[Ev] = for {
    idx <- Gen.choose(0L, 50L)
    ts <- Gen.choose(0L, 50L)
    t <- Gen.oneOf("A", "B", "C")
    n <- Gen.oneOf("", "MSFT", "ORCL")
    price <- Gen.oneOf(Gen.choose(0, 20).map(_.toDouble), Gen.oneOf(-0.0, 0.0, 2.5))
    volume <- Gen.oneOf(-0.0, 0.0, 100.0, 200.0)
  } yield Ev(idx, ts, t, n, price, volume)

  private val genAtom: Gen[Atom] = Gen.oneOf(
    Gen.oneOf("A", "B", "C", "D").map(TypeIs),
    for { a <- Gen.oneOf("name", "type", "volume"); v <- Gen.oneOf("", "A", "MSFT", "0.0", "-0.0", "100.0") } yield StrEq(a, v),
    for {
      a <- Gen.oneOf("price", "volume", "ts", "stock_time", "idx")
      op <- Gen.oneOf("<", "<=", ">", ">=", "=", "!=")
      v <- Gen.oneOf(Gen.choose(0, 20).map(_.toDouble), Gen.oneOf(-0.0, 0.0, 2.5, 100.0))
    } yield NumCmp(a, op, v))

  test("property: bit i of an event's mask is atom i's value, in one word and in several") {
    check(forAll(Gen.oneOf(Gen.choose(1, 64), Gen.choose(65, 200)).flatMap(Gen.listOfN(_, genAtom)),
                 Gen.listOfN(20, genEv)) { (atoms, evs) =>
      val reg = new AtomRegistry
      atoms.foreach(reg.intern)
      val out = new Array[Long](reg.words)
      reg.words == math.max(1, (reg.size + 63) / 64) && evs.forall { ev =>
        val m = reg.mask(ev, out)
        (0 until 64 * reg.words).forall(i => AtomRegistry.has(m, i) == (i < reg.size && reg.atom(i).eval(ev)))
      }
    }, minTests = 200)
  }

  /** What an atom means, read straight from `Ev`'s fields, apart from `Attr` and `Cmp`. */
  private def reference(a: Atom, ev: Ev): Boolean = {
    def num(attr: String): Double = attr match {
      case "price"             => ev.price
      case "volume"            => ev.volume
      case "ts" | "stock_time" => ev.ts.toDouble
      case "idx"               => ev.idx.toDouble
    }
    a match {
      case TypeIs(t)        => ev.etype == t
      case StrEq("type", v) => ev.etype == v
      case StrEq("name", v) => ev.name == v
      case StrEq(attr, v)   => num(attr).toString == v
      case NumCmp(attr, op, v) =>
        val x = num(attr)
        op match {
          case "<"  => x < v
          case "<=" => x <= v
          case ">"  => x > v
          case ">=" => x >= v
          case "="  => x == v
          case "!=" => x != v
        }
    }
  }

  test("property: an atom's eval agrees with a reference read straight from the event's fields") {
    check(forAll(genAtom, genEv)((a, ev) => a.eval(ev) == reference(a, ev)), minTests = 2000)
  }

  test("each atomic predicate is evaluated once per event (registry size)") {
    // Query with the same predicate used twice still interns one atom.
    import repro.core.cel._
    val f = CFilter(CFilter(CAs(CAtom("A"), "x"), "x", NumCmp("price", ">", 1.0)),
      "x", NumCmp("price", ">", 1.0))
    val (_, reg) = repro.core.cea.Compiler.compile(f)
    assert(reg.size == 2) // TypeIs(A) + one NumCmp
  }

  test("an atom written twice, as the type or under the other name of ts, is interned once and matches as before") {
    import repro.core.ceql.CeqlParser
    val evs = (0 until 12).map(i => Ev(i, 2 * i, if (i % 3 == 0) "BUY" else "SELL", "", 0, 0))
    for ((filter, atoms) <- Seq("x[type = 'SELL']" -> 1, "x[ts > 5] AND x[stock_time > 5]" -> 2)) {
      val q = CeqlParser.parse(s"SELECT * FROM S WHERE SELL as x FILTER $filter WITHIN 4 events")
      val (_, reg) = repro.core.cea.Compiler.compile(q.pattern)
      assert(reg.size == atoms, filter)
      val got = runAll(repro.core.engine.Engines.core(q), evs).toSet
      assert(got.nonEmpty && got == repro.core.engine.BruteForce.evaluate(q, evs), filter)
      assert(got == CelSemantics.eval(q.pattern, evs, q.within), filter)
    }
  }

  test("ComplexEvent canonical constructor sorts data") {
    assert(ComplexEvent.of(1, 5, Seq(5, 1, 3)).data == List(1L, 3L, 5L))
  }

  test("ComplexEvent rejects data outside the interval") {
    assertThrows[IllegalArgumentException](ComplexEvent(2, 3, List(1L)))
  }
}
