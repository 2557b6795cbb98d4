package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.NarrowStep._

class NarrowPipeSpec extends SparkSpec {

  private def df() = spark.range(100).select(
    col("id"), (col("id") % 10).as("m"), (col("id") * 2).as("d"))

  test("filter steps apply conjunctively, fused and unfused agree") {
    val pipe = NarrowPipe(Vector(FilterStep(col("id") > 10), FilterStep(col("m") < 5)))
    val a = pipe(df(), fused = true).collect().map(_.getLong(0)).sorted
    val b = pipe(df(), fused = false).collect().map(_.getLong(0)).sorted
    assert(a.sameElements(b))
    assert(a.forall(id => id > 10 && id % 10 < 5))
  }

  test("rename maps column names") {
    val out = NarrowPipe(Vector(RenameStep(Map("m" -> "mod10")))).apply(df(), fused = true)
    assert(out.columns.contains("mod10") && !out.columns.contains("m"))
  }

  test("fillna fills only requested columns") {
    val src = spark.range(10).select(
      when(col("id") % 2 === 0, col("id")).as("a"),
      when(col("id") % 3 === 0, col("id")).as("b"))
    val out = NarrowPipe(Vector(FillNaStep(-1L, Seq("a")))).apply(src, fused = true)
    assert(out.filter(col("a") === -1).count() == 5)
    assert(out.filter(col("b").isNull).count() > 0)
  }

  test("fn step applies an arbitrary chunk function") {
    val out = NarrowPipe(Vector(FnStep("double", d => d.withColumn("dd", col("id") * 2))))
      .apply(df(), fused = true)
    assert(out.filter(col("id") === 4).head().getAs[Long]("dd") == 8)
  }

  test("mixed pipeline: fused equals unfused") {
    val pipe = NarrowPipe(Vector(
      FilterStep(col("id") > 5),
      WithColsStep(Seq("x" -> (col("id") * 3))),
      FilterStep(col("x") < 200),
      SelectStep(Seq("id", "x")),
      RenameStep(Map("x" -> "y")),
      DropStep(Seq("id", "absent"))))
    assert(pipe(df(), fused = true).columns.sameElements(Array("y")))
    val a = pipe(df(), fused = true).collect().map(_.toSeq).sortBy(_.toString)
    val b = pipe(df(), fused = false).collect().map(_.toSeq).sortBy(_.toString)
    assert(a.sameElements(b))

    // Adjacent column steps, independent or reading an earlier output.
    val cols = NarrowPipe(Vector(
      WithColsStep(Seq("a" -> (col("id") + 1))),
      WithColsStep(Seq("b" -> (col("id") + 2))),
      WithColsStep(Seq("a2" -> (col("a") * 10)))))
    for (fused <- Seq(true, false)) {
      val out = cols(df(), fused)
      assert(out.columns.sameElements(Array("id", "m", "d", "a", "b", "a2")), s"fused=$fused")
      val r5 = out.filter(col("id") === 5).head()
      assert(r5.getAs[Long]("a") == 6 && r5.getAs[Long]("b") == 7, s"fused=$fused")
      assert(out.filter(col("id") === 3).head().getAs[Long]("a2") == 40, s"fused=$fused")
    }
  }

  test("pipe concatenation preserves order") {
    val p1 = NarrowPipe.one(FilterStep(col("id") > 50))
    val p2 = NarrowPipe.one(WithColsStep(Seq("z" -> lit(1))))
    val out = (p1 ++ p2).apply(df(), fused = true)
    assert(out.count() == 49)
    assert(out.columns.contains("z"))
  }
}
