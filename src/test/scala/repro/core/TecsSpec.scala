package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.tecs._

/** Structural invariants of the tECS (§5.1–5.2): union gadgets, time-ordering,
  * 3-boundedness, safety, union-list operations, and output-linear delay of
  * the enumerator (Algorithm 2).
  */
class TecsSpec extends AnyFunSuite {

  private def bottom(i: Long) = Tecs.newBottom(i, i)

  // ------------------------------------------------------------- basic nodes

  test("bottom node denotes a single empty open complex event") {
    val b = bottom(3)
    assert(Tecs.denotation(b) == List((3L, Nil)))
    assert(b.max == 3)
  }

  test("extend prepends a position") {
    val o = Tecs.extend(bottom(1), 4)
    assert(Tecs.denotation(o) == List((1L, List(4L))))
    assert(o.max == 1) // max-start is the start, not the extension
  }

  test("union denotes the union of both sides") {
    val n1 = Tecs.extend(bottom(2), 5)
    val n2 = Tecs.extend(bottom(2), 4)
    val u = Tecs.union(n1, n2)
    assert(Tecs.denotation(u).toSet == Set((2L, List(5L)), (2L, List(4L))))
  }

  test("union requires equal max-start") {
    assertThrows[IllegalArgumentException](Tecs.union(bottom(1), bottom(2)))
  }

  // ---------------------------------------------------------- union gadgets

  private def unionNode(l: Node, r: Node) = new Union(l, r)

  test("gadget (a): non-union first argument becomes the left child") {
    val u = Tecs.union(bottom(5), unionNode(bottom(5), bottom(4)))
    assert(Tecs.isSafe(u) && Tecs.odepth(u) == 1)
    Tecs.checkInvariants(u)
  }

  test("gadget (b): non-union second argument becomes the left child") {
    val inner = unionNode(bottom(5), bottom(4))
    val u = Tecs.union(inner, bottom(5))
    assert(Tecs.isSafe(u) && Tecs.odepth(u) == 1)
    Tecs.checkInvariants(u)
  }

  test("gadgets (c)/(d): union of two safe union nodes is safe and 3-bounded") {
    // build two safe union nodes with different right-max orders
    val u1 = unionNode(bottom(9), Tecs.extend(bottom(7), 8))
    val u2 = unionNode(bottom(9), Tecs.extend(bottom(6), 8))
    val c = Tecs.union(u1, u2) // max(right(u1))=7 >= max(right(u2))=6 → gadget (c)
    val d = Tecs.union(u2, u1) // 6 < 7 → gadget (d)
    for (u <- Seq(c, d)) {
      assert(Tecs.isSafe(u))
      Tecs.checkInvariants(u, k = 3)
      assert(Tecs.denotation(u).toSet ==
        (Tecs.denotation(u1) ++ Tecs.denotation(u2)).toSet)
    }
  }

  test("repeated unions stay 3-bounded (the k-bound never grows)") {
    var acc: Node = bottom(10)
    for (_ <- 1 to 50) {
      val fresh = Tecs.extend(bottom(10), 11)
      acc = Tecs.union(acc, fresh)
      assert(Tecs.isSafe(acc))
    }
    Tecs.checkInvariants(acc, k = 3)
  }

  // ------------------------------------------------------------ union-lists

  test("new-ulist rejects union nodes") {
    assertThrows[IllegalArgumentException](
      UnionList.single(unionNode(bottom(1), bottom(1))))
  }

  test("insert keeps strict descending order from index 1") {
    val ul = UnionList.single(bottom(9))
    ul.insert(Tecs.extend(bottom(5), 6))
    ul.insert(Tecs.extend(bottom(7), 8))
    ul.insert(Tecs.extend(bottom(3), 4))
    val maxes = ul.toSeq.map(_.max)
    assert(maxes.head == 9)
    assert(maxes.tail == maxes.tail.sorted(Ordering[Long].reverse))
    assert(maxes.tail.distinct == maxes.tail)
  }

  test("insert unions nodes with equal max-start") {
    val ul = UnionList.single(bottom(9))
    ul.insert(Tecs.extend(bottom(5), 6))
    val sizeBefore = ul.size
    ul.insert(Tecs.extend(bottom(5), 7))
    assert(ul.size == sizeBefore) // merged, not appended
    assert(Tecs.denotation(ul.toSeq(1)).toSet ==
      Set((5L, List(6L)), (5L, List(7L))))
  }

  test("insert with max equal to head goes to position 1") {
    val ul = UnionList.single(bottom(9))
    ul.insert(Tecs.extend(bottom(4), 5))
    ul.insert(Tecs.extend(bottom(9), 9))
    assert(ul.toSeq(1).max == 9)
  }

  test("insert above head max is rejected") {
    val ul = UnionList.single(bottom(3))
    assertThrows[IllegalArgumentException](ul.insert(bottom(7)))
  }

  test("merge produces a safe node denoting the union of all entries") {
    val ul = UnionList.single(bottom(9))
    ul.insert(Tecs.extend(bottom(5), 6))
    ul.insert(Tecs.extend(bottom(7), 8))
    val m = ul.merge()
    assert(Tecs.isSafe(m))
    Tecs.checkInvariants(m)
    assert(Tecs.denotation(m).toSet ==
      Set((9L, Nil), (5L, List(6L)), (7L, List(8L))))
  }

  test("merge of singleton list returns the node itself") {
    val b = bottom(2)
    assert(UnionList.single(b).merge() eq b)
  }

  test("pruneExpired drops only expired tail entries") {
    val ul = UnionList.single(bottom(9))
    ul.insert(Tecs.extend(bottom(7), 8))
    ul.insert(Tecs.extend(bottom(2), 3))
    ul.pruneExpired(5)
    assert(ul.toSeq.map(_.max) == Seq(9L, 7L))
  }

  // ------------------------------------------------------------ enumeration

  test("enumerate returns all complex events within the window") {
    val ul = UnionList.single(bottom(9))
    ul.insert(Tecs.extend(bottom(5), 6))
    ul.insert(Tecs.extend(bottom(7), 8))
    val n = ul.merge()
    val all = Enumerator.enumerate(n, 10, Long.MinValue)
    assert(all.toSet == Set(
      ComplexEvent(9, 10, Nil), ComplexEvent(5, 10, List(6)), ComplexEvent(7, 10, List(8))))
  }

  test("enumerate applies the window threshold") {
    val ul = UnionList.single(bottom(9))
    ul.insert(Tecs.extend(bottom(5), 6))
    ul.insert(Tecs.extend(bottom(7), 8))
    val n = ul.merge()
    val windowed = Enumerator.enumerate(n, 10, 7)
    assert(windowed.toSet == Set(ComplexEvent(9, 10, Nil), ComplexEvent(7, 10, List(8))))
  }

  test("enumerate on fully-expired node returns nothing") {
    assert(Enumerator.enumerate(bottom(1), 10, 5).isEmpty)
  }

  test("enumerate respects the limit") {
    val ul = UnionList.single(bottom(9))
    for (i <- 1 to 5) ul.insert(Tecs.extend(bottom(9 - i), 9))
    assert(Enumerator.enumerate(ul.merge(), 10, Long.MinValue, limit = 3).size == 3)
  }

  test("positions are ascending in enumerated complex events") {
    var n: Node = bottom(0)
    for (j <- 1 to 6) n = Tecs.extend(n, j)
    val List(ce) = Enumerator.enumerate(n, 6, Long.MinValue)
    assert(ce.data == List(1L, 2L, 3L, 4L, 5L, 6L))
  }

  test("output-linear delay: node visits bounded by c * total output size") {
    // Deep chain with many branches: visits must stay linear in what is output.
    var n: Node = Tecs.extend(bottom(0), 1)
    for (j <- 2 to 40) {
      val branch = Tecs.extend(Tecs.extend(bottom(0), j - 1), j)
      n = Tecs.union(Tecs.extend(n, j), branch)
    }
    val counter = new Enumerator.Counter
    val out = Enumerator.enumerate(n, 41, Long.MinValue, visitCounter = Some(counter))
    val outputSize = out.map(_.data.size + 2).sum
    assert(out.nonEmpty)
    assert(counter.n <= 8L * outputSize, s"visits ${counter.n} vs output $outputSize")
  }

  test("enumeration equals the denotation on paths and stacks longer than the initial buffers") {
    // Each level is a union with a short branch: 60 outputs of up to 60
    // positions, and a stack 60 deep when the first output is reached.
    var n: Node = Tecs.extend(bottom(0), 1)
    for (j <- 2 to 60) n = Tecs.union(Tecs.extend(n, j), Tecs.extend(Tecs.extend(bottom(0), j - 1), j))
    val out = Enumerator.enumerate(n, 61, Long.MinValue)
    assert(out.map(_.data.size).max > Enumerator.InitialSize)
    assert(out.map(ce => s"${ce.start}:${ce.data}").sorted ==
      Tecs.denotation(n).map { case (s, d) => s"$s:${d.reverse}" }.sorted) // denotation lists newest first
  }

  test("the limit stops the walk: limit 1 costs the first output's path, not all outputs") {
    // Each level doubles the outputs: 2^12 = 4096 complex events of 12 positions.
    var n: Node = bottom(0)
    for (k <- 1 to 12) n = Tecs.union(Tecs.extend(n, 2L * k), Tecs.extend(n, 2L * k + 1))
    val all, one = new Enumerator.Counter
    val everything = Enumerator.enumerate(n, 30, Long.MinValue, visitCounter = Some(all))
    val List(first) = Enumerator.enumerate(n, 30, Long.MinValue, limit = 1, visitCounter = Some(one))
    assert(everything.size == 4096 && everything.head == first)
    assert(first.data == (1 to 12).map(2L * _).toList)
    assert(one.n <= 3L * (first.data.size + 2), s"limit 1 visited ${one.n} nodes")
    assert(all.n > 4096)
  }

  test("engine-produced tECS is time-ordered and 3-bounded at every step") {
    import repro.core.cel._
    import repro.core.engine.Engines
    import repro.core.TestUtil._
    val q = query(Cel.seq(CAtom("A"), CPlus(COr(CAtom("B"), CAtom("C"))), CAtom("D")))
    val engine = Engines.core(q).asInstanceOf[repro.core.engine.CoreEngine]
    val evs = stream("A", "B", "C", "B", "A", "C", "D", "B", "D")
    for (ev <- evs) {
      engine.onEvent(ev)
      for (ul <- engine.unionListsForTest) {
        // union-list invariants: non-union head with the list's max, strict
        // descending tail, every entry safe
        val ns = ul.toSeq
        assert(!ns.head.isInstanceOf[Union])
        assert(ns.forall(n => Tecs.isSafe(n)))
        val tailMaxes = ns.tail.map(_.max)
        assert(ns.head.max >= (if (tailMaxes.isEmpty) Long.MinValue else tailMaxes.max))
        assert(tailMaxes == tailMaxes.sorted(Ordering[Long].reverse))
        // DAG invariants: time-ordered + 3-bounded everywhere
        ns.foreach(Tecs.checkInvariants(_, k = 3))
      }
    }
    assert(engine.activeStates > 0)
  }
}
