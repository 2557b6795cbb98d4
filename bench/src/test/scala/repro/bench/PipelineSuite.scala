package repro.bench

import repro.baseline.Engines
import repro.core.{Engine, EngineStats}
import repro.sim.MemorySimulator
import repro.workloads.{Census, Plasticc, Uc10}

/** Fig 8a as a table: end-to-end DS-pipeline wall time, dynamic-tiling
  * engine vs the static-planning baseline, plus the cluster-scale
  * projection of the skew case that drives the paper's 29×/37× claim.
  */
class PipelineSuite extends BenchBase {

  private val sf = 0.03
  private val limit: Long = 2L << 20

  /** Times `pipeline` on the dynamic engine against the static baseline
    * with `compareArms`, each run on a fresh engine. Returns each arm's
    * median wall time and the stats of its last run.
    */
  private def dynamicVsStatic(title: String)(pipeline: Engine => Any): ((Double, EngineStats), (Double, EngineStats)) = {
    val last = scala.collection.mutable.Map[String, EngineStats]()
    def arm(name: String, mk: () => Engine): (String, () => Any) =
      name -> (() => { val e = mk(); try pipeline(e) finally { last(name) = e.stats; e.reset() } })
    val (tx, ts) = compareArms(title)(
      arm("dynamic", () => Engines.xorbits(spark, limit)), arm("static", () => Engines.static(spark, limit)))
    ((median(tx), last("dynamic")), (median(ts), last("static")))
  }

  test("Fig 8a (table): UC10 skew join — dynamic vs static") {
    val in = Uc10.inputs(spark, sf, nCustomers = 2000)
    in.transactions.count(); in.customers.count() // warm the generators

    val ((tx, exStats), (ts, stStats)) = dynamicVsStatic("Fig 8a UC10") { e =>
      Uc10.pipeline(e, in).toDF().count()
    }
    val exTraces = exStats.traces.toVector
    val stTraces = stStats.traces.toVector

    val speedup = ts / tx
    // Cluster-scale projection: same traces replayed on 64 bands at the
    // paper's data scale (34 GB ≈ 470× our input).
    val projX = MemorySimulator.simulate(MemorySimulator.projectBands(exTraces, 64), scale = 1.0)
    val projS = MemorySimulator.simulate(MemorySimulator.projectBands(stTraces, 64), scale = 1.0)

    printTable("Fig 8a (table) — TPCx-AI UC10 skew join",
      Seq("engine", "median wall s", "merges", "chunks stored", "bytes stored MB", "speedup vs static"),
      Seq(
        Seq("Xorbits (dynamic)", fmt(tx), s"bcast=${exStats.broadcastMerges}",
          exStats.chunksMaterialized.toString, fmt(exStats.bytesMaterialized / 1e6), fmt(speedup)),
        Seq("static baseline", fmt(ts), s"shuffle=${stStats.shuffleMerges}",
          stStats.chunksMaterialized.toString, fmt(stStats.bytesMaterialized / 1e6), "1.00"),
      ))
    println(f"paper: Xorbits 29x faster than Dask, 37x faster than Modin on UC10")
    println(f"projected 64-band makespan: xorbits=${projX.makespanMs}%.0f ms static=${projS.makespanMs}%.0f ms")

    assert(exStats.broadcastMerges == 1, "dynamic engine must broadcast the tiny side")
    assert(stStats.shuffleMerges == 1, "static engine must shuffle")
    assert(stStats.bytesMaterialized > exStats.bytesMaterialized,
      "static shuffle must move/store more bytes (the OOM driver at scale)")
    assert(speedup > 1.0, f"dynamic tiling should win on the skew join (got $speedup%.2f)")
  }

  test("Fig 8a (table): census pipeline — dynamic vs static") {
    val df = Census.input(spark, sf)
    df.count()
    val ((tx, exStats), (ts, _)) = dynamicVsStatic("Fig 8a census") { e =>
      Census.pipeline(e, df).toDF().count()
    }
    val fusedSteps = exStats.narrowStepsFused
    printTable("Fig 8a (table) — census pipeline",
      Seq("engine", "median wall s", "narrow steps fused", "speedup vs static"),
      Seq(
        Seq("Xorbits (dynamic)", fmt(tx), fusedSteps.toString, fmt(ts / tx)),
        Seq("static baseline", fmt(ts), "-", "1.00")))
    println("paper: Xorbits 2.65x over the fastest baseline (Modin) on census")
    assert(fusedSteps > 0)
    assert(ts / tx > 0.5, "dynamic engine must stay competitive")
  }

  test("Fig 8a (table): plasticc pipeline — dynamic vs static") {
    val df = Plasticc.input(spark, sf)
    df.count()
    val ((tx, _), (ts, _)) = dynamicVsStatic("Fig 8a plasticc") { e =>
      Plasticc.pipeline(e, df).toDF().count()
    }
    printTable("Fig 8a (table) — plasticc pipeline",
      Seq("engine", "median wall s", "speedup vs static"),
      Seq(
        Seq("Xorbits (dynamic)", fmt(tx), fmt(ts / tx)),
        Seq("static baseline", fmt(ts), "1.00")))
    println("paper: Xorbits 3.86x over PySpark on plasticc")
    assert(ts / tx > 0.5)
  }
}
