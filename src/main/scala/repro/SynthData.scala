package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** A synthetic TPC-H-style `orders` table at a configurable scale factor
  * (SF=1.0 has TPC-H SF1's 1.5 M orders), deterministic in (sf, seed).
  * `SparkStreamsSpec` lifts it into an event stream.
  */
object SynthData {
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(seed)     * nCust + 1).cast(LongType)             as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(seed + 1) * 3 + 1).cast("int"))         as "o_orderstatus",
      round(rand(seed + 2) * 500000 + 1000, 2)                 as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 3) * 2406).cast("int"))            as "o_orderdate",
    )
  }
}
