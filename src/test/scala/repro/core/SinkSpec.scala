package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Baselines
import repro.core.ceql._
import repro.core.engine.{Engines, StreamEngine}
import repro.core.tecs.MatchSink
import repro.core.TestUtil._
import scala.collection.mutable.ListBuffer

/** Every engine hands its matches to a [[MatchSink]]; the list-returning
  * `onEvent` is one adapter over it. Each engine is checked against itself:
  * what its sink receives is what the adapter returns.
  */
class SinkSpec extends AnyFunSuite {

  /** Keeps a copy of each match it receives, and whether each was well
    * formed: positions ascending within `[start, end]`. */
  private final class Recorder extends MatchSink {
    val got = ListBuffer.empty[(Long, Long, List[Long])]
    var wellFormed = true
    def apply(start: Long, end: Long, positions: Array[Long], from: Int): Unit = {
      val data = positions.slice(from, positions.length).toList
      wellFormed &&= data.forall(p => start <= p && p <= end) && data.zip(data.drop(1)).forall { case (a, b) => a < b }
      got += ((start, end, data))
    }
  }

  private val engines: Seq[(String, (CeqlQuery, Int) => StreamEngine)] = Seq(
    "CORE" -> ((q, l) => Engines.core(q, l)),
    "partitioned CORE" -> ((q, l) => Engines.core(q.copy(partitionBy = Seq("volume")), l)),
    "SASE" -> ((q, l) => Baselines.sase(q, l)),
    "Esper" -> ((q, l) => Baselines.esper(q, l)),
    "FlinkCEP" -> ((q, l) => Baselines.flink(q, l)),
  )

  private val genRun: Gen[(CeqlQuery, Int, IndexedSeq[Ev])] = for {
    f <- genCel(2)
    evs <- genTimedStream(10)
    vols <- Gen.listOfN(evs.length, Gen.oneOf(0.0, 100.0))
    w <- Gen.oneOf(Gen.choose(1L, 8L).map(CountWindow(_)), Gen.choose(0L, 10L).map(TimeWindow(_)))
    strategy <- Gen.oneOf(Strategy.All, Strategy.Next, Strategy.Last, Strategy.Max)
    consume <- Gen.oneOf(Consume.None, Consume.Any)
    limit <- Gen.oneOf(-1, 1, 10)
  } yield (query(f, w, strategy, consume), limit, evs.zip(vols).map { case (e, v) => e.copy(volume = v) })

  for ((name, mk) <- engines)
    test(s"property: $name passes its sink, in order, exactly the adapter's matches, and returns their number") {
      check(forAll(genRun) { case (q, limit, evs) =>
        val viaList = mk(q, limit); val viaSink = mk(q, limit)
        val failure = evs.iterator.flatMap { ev =>
          val want = viaList.onEvent(ev).map(ce => (ce.start, ce.end, ce.data))
          val rec = new Recorder
          val n = viaSink.onEvent(ev, rec)
          if (rec.wellFormed && rec.got.toList == want && n == rec.got.size) None
          else Some(s"${q.where} limit $limit at idx ${ev.idx}: sink ${rec.got.toList} (returned $n), adapter $want")
        }.nextOption()
        failure.isEmpty :| failure.getOrElse("")
      }, minTests = 100)
    }
}
