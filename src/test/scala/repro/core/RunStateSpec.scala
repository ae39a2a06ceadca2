package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TestUtil._
import repro.core.cel._
import repro.core.ceql._
import repro.core.engine.{CompiledQuery, CoreEngine, Engines, RunState, RunStateFormatException}
import repro.harness.Workloads

/** The run-state codec: a run cut into micro-batches, its state encoded and
  * decoded at every cut — possibly into a plan that numbered its det-states
  * differently — must give exactly the outputs of one uninterrupted run.
  */
class RunStateSpec extends AnyFunSuite {

  /** Outputs per event of one uninterrupted run. */
  private def uninterrupted(q: CeqlQuery, limit: Int, evs: Seq[Ev]): Seq[List[ComplexEvent]] = {
    val e = new CompiledQuery(q, limit).engine("")
    evs.map(e.onEvent)
  }

  /** Outputs per event of a run cut before each position in `cuts`; at each
    * cut the state goes through the codec into an engine on the next plan.
    */
  private def split(evs: Seq[Ev], cuts: Seq[Int], plans: Iterator[CompiledQuery]): Seq[List[ComplexEvent]] = {
    var e = plans.next().engine("")
    evs.zipWithIndex.map { case (ev, i) =>
      if (cuts.contains(i)) {
        val next = plans.next().engine("")
        next.restore(e.snapshot())
        // the same det-states, less those whose runs left the window
        val kept = next.activeStateSetsForTest
        assert(kept == e.activeStateSetsForTest.filter(kept.contains))
        e = next
      }
      e.onEvent(ev)
    }
  }

  private val genConfig: Gen[(Window, Strategy, Consume, Int)] = for {
    window <- Gen.oneOf(Gen.choose(1L, 12L).map(CountWindow(_)), Gen.choose(0L, 20L).map(TimeWindow(_)))
    strategy <- Gen.oneOf(Strategy.All, Strategy.Max)
    consume <- Gen.oneOf(Consume.None, Consume.Any)
    limit <- Gen.oneOf(10, -1)
  } yield (window, strategy, consume, limit)

  test("property: a codec round trip at every random micro-batch cut equals one uninterrupted run") {
    check(Prop.forAll(genCel(3), genTimedStream(30), genConfig, genTimedStream(30), Gen.listOf(Gen.choose(0, 30))) {
      case (f, evs, (window, strategy, consume, limit), warm, cuts) =>
        val q = query(f, window, strategy, consume)
        // Every other cut decodes into a fresh plan, warmed up on another stream
        // so that it numbers its det-states in another order.
        val plans = Iterator.from(0).map { k =>
          val plan = new CompiledQuery(q, limit)
          if (k % 2 == 1) { val w = plan.engine(""); warm.foreach(w.onEvent) }
          plan
        }
        split(evs, cuts.distinct.sorted, plans) == uninterrupted(q, limit, evs)
    }, minTests = 300)
  }

  test("state decodes into a plan that numbered its det-states differently") {
    val f = COr(CSeq(CAtom("A"), CAtom("C")), CSeq(CAtom("B"), CAtom("C")))
    val q = query(f, CountWindow(10))
    val evs = stream("A", "B", "A", "C", "B", "C")
    val plan1 = new CompiledQuery(q, -1)
    val plan2 = new CompiledQuery(q, -1)
    val warm = plan2.engine("")
    stream("B", "C", "A", "C").foreach(warm.onEvent)
    val e1 = plan1.engine("")
    evs.take(3).foreach(e1.onEvent)
    val (det1, det2) = (plan1.det, plan2.det)
    assume(det1.numDetStates > 1)
    assert((1 until math.min(det1.numDetStates, det2.numDetStates)).exists(p =>
      !det1.stateSet(p).sameElements(det2.stateSet(p))), "the plans number their det-states the same")
    val e2 = plan2.engine("")
    e2.restore(e1.snapshot())
    assert(e2.activeStateSetsForTest == e1.activeStateSetsForTest)
    assert(evs.drop(3).map(e2.onEvent) == uninterrupted(q, -1, evs).drop(3))
  }

  test("engine round-trips through the run-state codec mid-stream") {
    val q = query(Cel.seqOfTypes("A", "B"))
    val e1 = Engines.core(q).asInstanceOf[CoreEngine]
    stream("A", "C", "A").foreach(e1.onEvent)
    val e2 = e1.plan.engine("")
    e2.restore(e1.snapshot())
    val out = e2.onEvent(Ev(3, 3, "B", "NB", 30.0, 0.0))
    assert(out.map(ce => (ce.start, ce.data)).toSet ==
      Set((0L, List(0L, 3L)), (2L, List(2L, 3L))))
  }

  test("engine round-trips through java serialization mid-stream, deep tECS included") {
    val q = query(Cel.seq(CAtom("A"), CPlus(CAtom("B")), CAtom("C")))
    val evs = (0 until 20000).map(i => Ev(i, i, if (i == 0) "A" else if (i % 1000 == 999) "C" else "B", "", 0, 0))
    val e1 = Engines.core(q, limit = 10).asInstanceOf[CoreEngine]
    evs.take(15000).foreach(e1.onEvent)
    val e2 = fromJava(javaForm(e1))
    assert(evs.drop(15000).map(e2.onEvent) == uninterrupted(q, 10, evs).drop(15000))
  }

  private def javaForm(e: CoreEngine): Array[Byte] = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(e); oos.close()
    bos.toByteArray
  }

  private def fromJava(bytes: Array[Byte]): CoreEngine =
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes)).readObject().asInstanceOf[CoreEngine]

  /** 2000 events over {A,B,C} whose timestamps grow by 0–3 per event, as `genTimedStream` builds them. */
  private val timed: IndexedSeq[Ev] = {
    val rnd = new scala.util.Random(7)
    val types = IndexedSeq.fill(2000)(Seq("A", "B", "C")(rnd.nextInt(3)))
    types.zip(types.indices.scanLeft(0L)((ts, _) => ts + rnd.nextInt(4))).zipWithIndex.map { case ((t, ts), i) =>
      Ev(i.toLong, ts, t, s"N$t", 10.0 * i, 0.0)
    }
  }

  test("an engine's Java form is its query and its run state: it does not grow with the det cache") {
    val e = new CompiledQuery(query(Cel.seq(CAtom("A"), CPlus(CAtom("B")), CAtom("C")), TimeWindow(6)), 10).engine("")
    def planBytes = javaForm(e).length - e.snapshot().length
    val fresh = planBytes
    val cache0 = e.det.cacheSize
    timed.foreach(e.onEvent)
    assert(e.det.cacheSize > cache0)
    assert(planBytes == fresh)
  }

  test("a deserialized engine compiles a fresh determinizer and continues the run") {
    val q = query(Cel.seq(CAtom("A"), CPlus(CAtom("B")), CAtom("C")), TimeWindow(20))
    val e1 = new CompiledQuery(q, 10).engine("")
    timed.take(1000).foreach(e1.onEvent)
    val e2 = fromJava(javaForm(e1))
    assert(e2.det ne e1.det)
    // only the det-states of the decoded run state are interned, and nothing is cached
    assert(e2.det.cacheSize == 0 && e1.det.cacheSize > 0)
    assert(timed.drop(1000).map(e2.onEvent) == uninterrupted(q, 10, timed).drop(1000))
  }

  test("a fresh engine's stored state holds no plan: stock Q3 and A1;...;A9 store the same bytes") {
    val q3 = Workloads.stockQuery("Q3")
    val seq9 = Workloads.seqQuery(9, 100)
    val s3 = new CompiledQuery(q3.copy(partitionBy = Nil), 10).engine("100.0").snapshot()
    val s9 = Engines.core(seq9, 10).asInstanceOf[CoreEngine].snapshot()
    assert(s3.length == s9.length)
    assert(s3.length <= 4, s"a fresh run state is ${s3.length} bytes")
  }

  private def someState(): Array[Byte] = {
    val e = Engines.core(query(Cel.seqOfTypes("A", "B", "C"), CountWindow(20))).asInstanceOf[CoreEngine]
    stream("A", "B", "A", "C", "B").foreach(e.onEvent)
    e.snapshot()
  }

  test("a state with an unknown format version is rejected") {
    val bytes = someState()
    bytes(0) = (RunState.Version + 1).toByte
    val err = intercept[RunStateFormatException](
      Engines.core(query(Cel.seqOfTypes("A", "B", "C"))).asInstanceOf[CoreEngine].restore(bytes))
    assert(err.getMessage.contains(s"format version ${RunState.Version + 1}"), err.getMessage)
  }

  test("a truncated state is rejected, wherever it is cut") {
    val bytes = someState()
    val e = Engines.core(query(Cel.seqOfTypes("A", "B", "C"))).asInstanceOf[CoreEngine]
    e.restore(bytes)
    for (n <- 0 until bytes.length) {
      val err = intercept[RunStateFormatException](e.restore(bytes.take(n)))
      assert(err.getMessage.startsWith("run state"), err.getMessage)
    }
  }

  /** A run state at clock 9 over `nodes` (encoded children first), with the
    * one active state {0} whose union-list is the nodes at `entries`.
    */
  private def crafted(nodes: Seq[Seq[Int]], entries: Seq[Int]): Array[Byte] =
    (Seq(RunState.Version, 1, 2 * 9, nodes.size) ++ nodes.flatten ++ Seq(1, 1, 0, entries.size) ++ entries)
      .map(_.toByte).toArray

  /** A bottom node at `pos` with max-start `pos`; a union node `self` over two earlier ones. */
  private def bottom(pos: Int) = Seq(0, 9 - pos, 0)
  private def union(self: Int, left: Int, right: Int) = Seq(2, self - left, self - right)

  test("a state whose union-lists or unions are not time-ordered is rejected") {
    // nodes 0, 1, 2 are bottoms with max-start 5, 4, 2; node 3 is 1 ∪ 2 (max-start 4)
    val nodes = Seq(bottom(5), bottom(4), bottom(2), union(3, 1, 2))
    val e = Engines.core(query(Cel.seqOfTypes("A", "B"), CountWindow(10))).asInstanceOf[CoreEngine]
    e.restore(crafted(nodes, Seq(0, 3, 2)))
    assert(e.unionListsForTest.map(_.size) == Seq(3))
    def rejected(bytes: Array[Byte], why: String): Unit = {
      val err = intercept[RunStateFormatException](e.restore(bytes))
      assert(err.getMessage.contains(why), err.getMessage)
    }
    rejected(crafted(nodes, Seq(3, 2)), "non-union")                  // head is a union
    rejected(crafted(nodes, Seq(0, 1, 3)), "max-start 4, above 3")   // 4 after 4: not strictly decreasing
    rejected(crafted(nodes, Seq(1, 0)), "max-start 5, above 4")      // above the head's
    rejected(crafted(nodes :+ union(4, 2, 1), Seq(0)), "right max-start 4 above left 2")
  }

  test("an event whose idx is not after the key's last one is rejected, naming the key and both positions") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(10), partitionBy = Seq("name"))
    val e = Engines.core(q)
    e.onEvent(Ev(0, 0, "A", "K1", 0, 0))
    e.onEvent(Ev(5, 5, "A", "K2", 0, 0))
    e.onEvent(Ev(7, 7, "A", "K1", 0, 0))
    val err = intercept[IllegalArgumentException](e.onEvent(Ev(6, 6, "B", "K1", 0, 0)))
    assert(err.getMessage.contains("'K1'") && err.getMessage.contains("idx 6") && err.getMessage.contains("idx 7"),
      err.getMessage)
    intercept[IllegalArgumentException](e.onEvent(Ev(7, 8, "B", "K1", 0, 0)))
    // the rejected events changed nothing, and under a count window only idx is checked, not ts
    assert(e.onEvent(Ev(8, 1, "B", "K1", 0, 0)).map(_.data).toSet == Set(List(0L, 8L), List(7L, 8L)))
    assert(e.onEvent(Ev(6, 6, "B", "K2", 0, 0)).map(_.data) == List(List(5L, 6L)))
  }

  test("the idx contract survives a codec round trip") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(10))
    val e1 = Engines.core(q).asInstanceOf[CoreEngine]
    e1.onEvent(Ev(4, 4, "A", "", 0, 0))
    val e2 = e1.plan.engine("k")
    e2.restore(e1.snapshot())
    val err = intercept[IllegalArgumentException](e2.onEvent(Ev(3, 3, "B", "", 0, 0)))
    assert(err.getMessage.contains("'k'") && err.getMessage.contains("idx 3") && err.getMessage.contains("idx 4"))
  }
}
