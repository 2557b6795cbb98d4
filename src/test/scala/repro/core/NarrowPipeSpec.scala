package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.NarrowStep._

/** Narrow steps, alone and applied in turn as a pipe, against the same
  * calls on plain Spark.
  */
class NarrowPipeSpec extends SparkSpec {

  private def df() = spark.range(100).select(
    col("id"), (col("id") % 10).as("m"), (col("id") * 2).as("d"))

  private def pipe(steps: NarrowStep*)(in: DataFrame): DataFrame = steps.foldLeft(in)((d, s) => s(d))

  private def rows(d: DataFrame): Seq[String] = d.collect().map(_.toSeq.toString).toSeq.sorted

  test("filter steps apply conjunctively, like Spark's filters") {
    val out = pipe(FilterStep(col("id") > 10), FilterStep(col("m") < 5))(df())
    assert(rows(out) == rows(df().filter(col("id") > 10).filter(col("m") < 5)))
    assert(out.collect().map(_.getLong(0)).forall(id => id > 10 && id % 10 < 5))
  }

  test("rename maps column names") {
    val out = RenameStep(Map("m" -> "mod10"))(df())
    assert(out.columns.contains("mod10") && !out.columns.contains("m"))
  }

  test("fillna fills only requested columns") {
    val src = spark.range(10).select(
      when(col("id") % 2 === 0, col("id")).as("a"),
      when(col("id") % 3 === 0, col("id")).as("b"))
    val out = FillNaStep(-1L, Seq("a"))(src)
    assert(out.filter(col("a") === -1).count() == 5)
    assert(out.filter(col("b").isNull).count() > 0)
  }

  test("fn step applies an arbitrary chunk function") {
    val out = FnStep("double", d => d.withColumn("dd", col("id") * 2))(df())
    assert(out.filter(col("id") === 4).head().getAs[Long]("dd") == 8)
  }

  test("mixed pipeline: each step matches its Spark call") {
    val out = pipe(
      FilterStep(col("id") > 5),
      WithColsStep(Seq("x" -> (col("id") * 3))),
      FilterStep(col("x") < 200),
      SelectStep(Seq("id", "x")),
      RenameStep(Map("x" -> "y")),
      DropStep(Seq("id", "absent")))(df())
    assert(out.columns.sameElements(Array("y")))
    val want = df().filter(col("id") > 5).withColumn("x", col("id") * 3).filter(col("x") < 200)
      .select("id", "x").withColumnRenamed("x", "y").drop("id", "absent")
    assert(rows(out) == rows(want))

    // Adjacent column steps, independent or reading an earlier output.
    val cols = pipe(
      WithColsStep(Seq("a" -> (col("id") + 1))),
      WithColsStep(Seq("b" -> (col("id") + 2))),
      WithColsStep(Seq("a2" -> (col("a") * 10))))(df())
    assert(cols.columns.sameElements(Array("id", "m", "d", "a", "b", "a2")))
    val r5 = cols.filter(col("id") === 5).head()
    assert(r5.getAs[Long]("a") == 6 && r5.getAs[Long]("b") == 7)
    assert(cols.filter(col("id") === 3).head().getAs[Long]("a2") == 40)
    assert(rows(cols) == rows(df().withColumn("a", col("id") + 1).withColumn("b", col("id") + 2)
      .withColumn("a2", col("a") * 10)))
  }

  test("pipe concatenation preserves order") {
    val out = pipe(FilterStep(col("id") > 50), WithColsStep(Seq("z" -> lit(1))))(df())
    assert(out.count() == 49)
    assert(out.columns.contains("z"))
  }
}
