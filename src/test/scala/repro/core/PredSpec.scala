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
    val bits = BitSet(0, 2).toBitMask
    assert(PAtom(0).eval(bits) && !PAtom(1).eval(bits))
    assert(PAnd(PAtom(0), PAtom(2)).eval(bits))
    assert(!PAnd(PAtom(0), PAtom(1)).eval(bits))
    assert(POr(PAtom(1), PAtom(2)).eval(bits))
    assert(PNot(PAtom(1)).eval(bits))
    assert(PTrue.eval(bits) && !PFalse.eval(bits))
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

  test("each atomic predicate is evaluated once per event (registry size)") {
    // Query with the same predicate used twice still interns one atom.
    import repro.core.cel._
    val f = CFilter(CFilter(CAs(CAtom("A"), "x"), "x", NumCmp("price", ">", 1.0)),
      "x", NumCmp("price", ">", 1.0))
    val (_, reg) = repro.core.cea.Compiler.compile(f)
    assert(reg.size == 2) // TypeIs(A) + one NumCmp
  }

  test("ComplexEvent canonical constructor sorts data") {
    assert(ComplexEvent.of(1, 5, Seq(5, 1, 3)).data == List(1L, 3L, 5L))
  }

  test("ComplexEvent rejects data outside the interval") {
    assertThrows[IllegalArgumentException](ComplexEvent(2, 3, List(1L)))
  }
}
