package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}
import repro.baseline.Engines

/** Narrow operators, alone and chained, through `XFrame` against the same
  * calls on plain Spark. Each program runs on `Engines.xorbits` and
  * `Engines.noGraphFusion` at a 64 KiB chunk limit: only with graph fusion
  * on does a subtask run narrow operators inside their consumers' plan, so
  * these are also the arms with and without operator-level fusion.
  */
class NarrowPipeSpec extends SparkSpec {

  /** 5,000 keyed rows with two nullable columns, `a` (long) and `b`
    * (double): three chunks at a 64 KiB limit.
    */
  private def withNulls = SynthData.uniformKeys(spark, 5000, 40, seed = 5).select(col("k"), col("v"),
    when(col("k") % 2 === 0, col("k")) as "a", when(col("k") % 3 === 0, col("v")) as "b")

  private def canon(rows: Array[Row]): Seq[String] = rows.map(_.toSeq.map {
    case x: Double => f"$x%.6f"
    case x         => String.valueOf(x)
  }.mkString("|")).toSeq.sorted

  /** Runs `xf` on both arms over `withNulls`, asserts the same column
    * names, types and rows as `want` on plain Spark, and returns the
    * columns and rows of the last arm's result.
    */
  private def onBothArms(program: String)(xf: XFrame => XFrame, want: DataFrame => DataFrame): (Array[String], Array[Row]) = {
    val src = withNulls
    val ref = want(src)
    Seq[(String, () => Engine)](
        "xorbits" -> (() => Engines.xorbits(spark, 64 << 10)),
        "noGraphFusion" -> (() => Engines.noGraphFusion(spark, 64 << 10))).map { case (arm, mk) =>
      val e = mk()
      try {
        val source = XFrame.source(e, "t", src)
        assert(source.numChunks() == 3)
        val got = xf(source).toDF()
        val out = got.collect()
        withClue(s"$program, $arm: ") {
          assert(got.dtypes.sameElements(ref.dtypes),
            s"schema differs: got ${got.dtypes.toVector}, want ${ref.dtypes.toVector}")
          assert(canon(out) == canon(ref.collect()))
        }
        (got.columns, out)
      } finally e.reset()
    }.last
  }

  test("filter steps apply conjunctively, like Spark's filters") {
    val (_, out) = onBothArms("two filters")(
      _.filter(col("k") > 10).filter(col("v") < 0.5),
      _.filter(col("k") > 10).filter(col("v") < 0.5))
    assert(out.nonEmpty)
    assert(out.forall(r => r.getAs[Long]("k") > 10 && r.getAs[Double]("v") < 0.5))
  }

  test("rename maps column names") {
    val (columns, _) = onBothArms("rename")(
      _.rename("v" -> "value", "a" -> "even"),
      _.withColumnRenamed("v", "value").withColumnRenamed("a", "even"))
    assert(columns.sameElements(Array("k", "value", "even", "b")))
  }

  test("mixed pipeline: each step matches its Spark call") {
    val (mixed, _) = onBothArms("filter/withColumn/select/rename/drop")(
      _.filter(col("k") > 5).withColumn("x", col("k") * 3).filter(col("x") < 100)
        .select("k", "x").rename("x" -> "y").drop("k", "absent"),
      _.filter(col("k") > 5).withColumn("x", col("k") * 3).filter(col("x") < 100)
        .select("k", "x").withColumnRenamed("x", "y").drop("k", "absent"))
    assert(mixed.sameElements(Array("y")))

    // Adjacent column steps, independent or reading an earlier output.
    val (cols, colRows) = onBothArms("column steps reading an earlier output")(
      _.withColumn("c1", col("k") + 1).withColumn("c2", col("k") + 2).withColumn("c3", col("c1") * 10),
      _.withColumn("c1", col("k") + 1).withColumn("c2", col("k") + 2).withColumn("c3", col("c1") * 10))
    assert(cols.sameElements(Array("k", "v", "a", "b", "c1", "c2", "c3")))
    assert(colRows.forall(r => r.getAs[Long]("c3") == (r.getAs[Long]("k") + 1) * 10))
  }

  test("pipe concatenation preserves order") {
    // The same two steps in both orders: filling first leaves no null to keep.
    val (_, filledNulls) = onBothArms("filter then fillna")(
      _.filter(col("a").isNull).fillna(-1L, "a"),
      _.filter(col("a").isNull).na.fill(-1L, Seq("a")))
    assert(filledNulls.nonEmpty && filledNulls.forall(_.getAs[Long]("a") == -1L))
    val (_, none) = onBothArms("fillna then filter")(
      _.fillna(-1L, "a").filter(col("a").isNull),
      _.na.fill(-1L, Seq("a")).filter(col("a").isNull))
    assert(none.isEmpty)
  }
}
