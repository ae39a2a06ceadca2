package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.ceql.Consume
import repro.harness.Workloads
import repro.spark.{CoreBatch, SparkStreams}

/** Runs the stock queries Q1 (one ordered scan) and Q3 (PARTITION BY: one
  * ordered scan per hash partition, a CORE run per key) through the Spark dataflow layer
  * (CoreBatch) over a distributed synthetic stock stream, and prints the
  * recognized complex events.
  *
  * Usage: spark-submit --class repro.jobs.StreamingDemo <jar> [events]
  */
object StreamingDemo {
  def main(args: Array[String]): Unit = {
    val n = args.lift(0).map(_.toLong).getOrElse(100000L)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("core-repro-streaming-demo")
      .getOrCreate()
    try {
      val events = SparkStreams.stockStream(spark, n)
      for (qn <- Seq("Q1", "Q3")) { // Q3 = Q1 + PARTITION BY [volume]; its matches are rare
        val q = Workloads.stockQuery(qn).copy(consume = Consume.Any)
        val rows = CoreBatch.evaluate(events, q, limit = 10).collect()
        println(s"$qn: events=$n matches=${rows.length} " +
          s"partitions=${rows.map(_.partKey).distinct.length}")
        rows.take(10).foreach(m => println(s"  [${m.partKey}] [${m.start},${m.end}] {${m.data}}"))
      }
    } finally spark.stop()
  }
}
