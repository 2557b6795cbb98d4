package repro.bench

import repro.baseline.Engines
import repro.core.Engine
import repro.tpch.{TpchCtx, TpchData, TpchQueries}
import repro.workloads.Census

/** Fig 9 as tables: the paper's ablation.
  *
  *  (a) dynamic tiling on/off on the merge-heavy queries Q2 (4 merges)
  *      and Q7 (most merges in our rewrite) — paper: 7.08× and 10.59×;
  *  (b) graph-level fusion on/off on Q7/Q8 — paper: 3.80× and 2.04×;
  *      operator-level fusion on/off — paper: ~16 % on feature chains;
  *      ours turns off Spark's whole-stage codegen for the "off" arm.
  */
class AblationSuite extends BenchBase {

  private val sf = 0.01
  private val limit: Long = 2L << 20

  private def runQuery(id: Int, mk: () => Engine): Unit = {
    val e = mk()
    try TpchQueries.byId(id).run(TpchCtx(e, TpchData.tables(spark, sf))).toDF().count()
    finally e.reset()
  }

  /** Median wall seconds of query `id` on each of two engines, timed
    * with `compareArms`. A stored chunk costs one job, so one cold run of
    * each arm would time the JVM's warm-up more than the engines.
    */
  private def medians(title: String, id: Int)(on: (String, () => Engine), off: (String, () => Engine)): (Double, Double) = {
    val (a, b) = compareArms(s"$title, Q$id")(
      on._1 -> (() => runQuery(id, on._2)), off._1 -> (() => runQuery(id, off._2)))
    (median(a), median(b))
  }

  test("Fig 9a (table): dynamic tiling on/off (Q2, Q7)") {
    val rows = Seq(2, 7).map { id =>
      val (on, off) = medians("Fig 9a dynamic tiling", id)(
        "dy on" -> (() => Engines.xorbits(spark, limit)), "dy off" -> (() => Engines.static(spark, limit)))
      Seq(s"Q$id", fmt(on), fmt(off), fmt(off / on),
        if (id == 2) "7.08x" else "10.59x")
    }
    printTable("Fig 9a (table) — dynamic tiling ablation",
      Seq("query", "dy on median (s)", "dy off median (s)", "speedup ours", "speedup paper"), rows)
    rows.foreach { r =>
      assert(r(3).toDouble > 1.0, s"${r.head}: dynamic tiling must speed up merge-heavy queries")
    }
  }

  test("Fig 9b (table): graph-level fusion on/off (Q7, Q8)") {
    val rows = Seq(7, 8).map { id =>
      val (on, off) = medians("Fig 9b graph fusion", id)(
        "g on" -> (() => Engines.xorbits(spark, limit)), "g off" -> (() => Engines.noGraphFusion(spark, limit)))
      Seq(s"Q$id", fmt(on), fmt(off), fmt(off / on),
        if (id == 7) "3.80x" else "2.04x")
    }
    printTable("Fig 9b (table) — graph-level fusion ablation",
      Seq("query", "g on median (s)", "g off median (s)", "speedup ours", "speedup paper"), rows)
    rows.foreach { r =>
      assert(r(3).toDouble > 1.0, s"${r.head}: graph fusion must avoid materialization cost")
    }
  }

  test("Fig 9b (table): operator-level fusion on/off (census feature chain)") {
    val df = Census.input(spark, 0.03)
    df.count()
    def run(): Unit = {
      val e = Engines.xorbits(spark, 2L << 20)
      try Census.pipeline(e, df).toDF().count() finally e.reset()
    }
    // Operator-level fusion is Catalyst's: its optimizer collapses a
    // subtask's narrow steps, and whole-stage codegen compiles them into
    // one loop. The "o off" arm turns the compilation off.
    val codegen = "spark.sql.codegen.wholeStage"
    def withoutCodegen(): Unit = {
      val prev = spark.conf.getOption(codegen)
      spark.conf.set(codegen, "false")
      try run() finally prev.fold(spark.conf.unset(codegen))(spark.conf.set(codegen, _))
    }
    val (onTimes, offTimes) = compareArms("Fig 9b operator fusion, census")(
      "o on" -> (() => run()), "o off" -> (() => withoutCodegen()))
    val on = median(onTimes); val off = median(offTimes)
    printTable("Fig 9b (table) — operator-level fusion ablation",
      Seq("arm", "median wall s", "speedup ours", "paper"),
      Seq(
        Seq("o on", fmt(on), fmt(off / on), "~1.16x"),
        Seq("o off (no whole-stage codegen)", fmt(off), "1.00", "-")))
    assert(off / on > 0.7, "operator fusion must not regress")
  }
}
