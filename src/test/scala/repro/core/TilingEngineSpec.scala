package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.{JobProbe, SparkSpec, SynthData}
import repro.baseline.Engines
import repro.core.AggSpec._
import repro.storage.Tier

/** Engine-level behavior: chunking, dynamic tiling switches, auto reduce
  * selection, broadcast-vs-shuffle merges, iterative iloc, fusion and
  * storage accounting — each checked against plain-Spark references.
  */
class TilingEngineSpec extends SparkSpec {

  private def cfg(
      limit: Long = 64 << 10,
      dynamic: Boolean = true,
      graphFusion: Boolean = true,
  ) = EngineConfig(
    chunkSizeLimit = limit, dynamicTiling = dynamic, graphFusion = graphFusion,
    treeReduceThreshold = limit, broadcastThreshold = limit / 2)

  private def keys(n: Long) = SynthData.uniformKeys(spark, n, 40, seed = 5)

  private def canon(rows: Array[Row]): Array[String] =
    rows.map(_.toSeq.map {
      case d: Double => f"$d%.6f"
      case x         => String.valueOf(x)
    }.mkString("|")).sorted

  private def assertSameRows(got: Array[Row], want: Array[Row]): Unit = {
    val g = canon(got); val w = canon(want)
    assert(g.sameElements(w), s"rows differ: got ${g.length}, want ${w.length}\n" +
      s"  got head: ${g.take(3).toVector}\n  want head: ${w.take(3).toVector}")
  }

  private def assertSameSet(got: DataFrame, want: DataFrame): Unit =
    assertSameRows(got.collect(), want.collect())

  /** Same column names and types, in the same order, and the same rows. */
  private def assertLikeSpark(got: DataFrame, want: DataFrame): Unit = {
    assert(got.dtypes.sameElements(want.dtypes),
      s"schema differs: got ${got.dtypes.toVector}, want ${want.dtypes.toVector}")
    assertSameSet(got, want)
  }

  private def withEngine[T](c: EngineConfig)(f: Engine => T): T = {
    val e = new Engine(spark, c)
    try f(e) finally e.reset()
  }

  test("source tiles into ceil(bytes/limit) row-range chunks covering all rows") {
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", keys(20000)) // 20000 × 16 B = 312.5 KiB → 5 chunks
      assert(f.numChunks() == 5)
      assert(f.count() == 20000)
    }
  }

  test("tiny source is a single chunk") {
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", keys(10))
      assert(f.numChunks() == 1)
    }
  }

  test("deferred evaluation: graph construction executes nothing") {
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", keys(20000)).filter(col("v") > 0.5).withColumn("u", col("v") * 2)
      assert(e.stats.subtasksExecuted == 0, "narrow graph building must not execute")
      f.toDF().count()
      assert(e.stats.subtasksExecuted > 0)
    }
  }

  test("narrow filter matches the Spark reference") {
    withEngine(cfg()) { e =>
      val src = keys(20000)
      val got = XFrame.source(e, "t", src).filter(col("v") < 0.25).toDF()
      assertSameSet(got, src.filter(col("v") < 0.25))
    }
  }

  test("chunk metadata records exact per-chunk rows after a filter") {
    withEngine(cfg()) { e =>
      val src = keys(20000)
      val f = XFrame.source(e, "t", src).filter(col("v") < 0.25)
      val total = f.count()
      assert(total == src.filter(col("v") < 0.25).count())
    }
  }

  /** A groupby over `src` and a drop_duplicates of its `distinctCols`,
    * each with its Spark reference: both tile to map-combine-reduce.
    */
  private def reductions(src: DataFrame, distinctCols: Seq[String]): Seq[(String, XFrame => XFrame, DataFrame)] =
    Seq(
      ("groupby", _.groupby("k").agg(SumAgg("v", "sv")), src.groupBy("k").agg(sum("v") as "sv")),
      ("drop_duplicates", _.select(distinctCols: _*).dropDuplicates(),
        src.select(distinctCols.map(col): _*).distinct()))

  test("small aggregated size selects tree-reduce, with at least one tiling switch") {
    // 40 keys: both reduce to at most 80 rows.
    val src = keys(20000).withColumn("b", col("v") < 0.5)
    for ((what, op, want) <- reductions(src, Seq("k", "b"))) withEngine(cfg()) { e =>
      val got = op(XFrame.source(e, "t", src)).toDF()
      assert(e.stats.treeReduces == 1 && e.stats.shuffleReduces == 0, s"$what: ${e.stats}")
      assert(e.stats.tileExecSwitches >= 1, s"$what: dynamic tiling must have yielded to execution")
      assertSameSet(got, want)
    }
  }

  test("large aggregated size selects shuffle-reduce") {
    // Nearly-unique keys: aggregated size ≈ input size ≫ tree threshold.
    val src = SynthData.uniformKeys(spark, 20000, 1000000, seed = 6)
    for ((what, op, want) <- reductions(src, Seq("k", "v"))) withEngine(cfg(limit = 32 << 10)) { e =>
      val got = op(XFrame.source(e, "t", src)).toDF()
      assert(e.stats.shuffleReduces == 1 && e.stats.treeReduces == 0, s"$what: expected shuffle-reduce: ${e.stats}")
      assert(e.stats.tileExecSwitches >= 1, s"$what: dynamic tiling must have yielded to execution")
      assertSameSet(got, want)
    }
  }

  test("static planning always shuffle-reduces and never switches") {
    withEngine(cfg(dynamic = false)) { e =>
      val got = XFrame.source(e, "t", keys(20000)).groupby("k").agg(SumAgg("v", "sv")).toDF()
      assert(e.stats.shuffleReduces == 1 && e.stats.treeReduces == 0)
      assert(e.stats.tileExecSwitches == 0)
      assertSameSet(got, keys(20000).groupBy("k").agg(sum("v") as "sv"))
    }
  }

  test("global aggregate (no keys) tree-reduces in both modes") {
    for (dyn <- Seq(true, false)) {
      withEngine(cfg(dynamic = dyn)) { e =>
        val got = XFrame.source(e, "t", keys(20000)).groupby()
          .agg(SumAgg("v", "sv"), CountAgg("n")).toDF()
        assert(e.stats.treeReduces == 1, s"dyn=$dyn: ${e.stats}")
        assertSameSet(got, keys(20000).agg(sum("v") as "sv", count(lit(1)) as "n"))
      }
    }
  }

  test("tree reduce bounds fan-in with several combine nodes") {
    val src = keys(40000) // ≥ 10 chunks at 64 KiB
    withEngine(cfg()) { e =>
      XFrame.source(e, "t", src).groupby("k").agg(SumAgg("v", "sv")).toDF()
      val combines = e.stats.traces.flatMap(_.labels).count(_.startsWith("GroupbyAgg::combine"))
      assert(combines > 1, "fan-in limit should create multiple combine nodes")
    }
  }

  test("merge with a tiny side selects broadcast merge") {
    val big = keys(20000)
    val dim = spark.range(1, 41).select(col("id") as "k", (col("id") * 10) as "d")
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "big", big)
        .merge(XFrame.source(e, "dim", dim), Seq("k")).toDF()
      assert(e.stats.broadcastMerges == 1 && e.stats.shuffleMerges == 0, e.stats.toString)
      assertSameSet(got, big.join(dim, Seq("k")))
    }
  }

  test("merge of two large sides selects hash-shuffle merge") {
    val a = SynthData.uniformKeys(spark, 20000, 500, seed = 1)
    val b = SynthData.uniformKeys(spark, 20000, 500, seed = 2)
      .withColumnRenamed("v", "w")
    withEngine(cfg(limit = 32 << 10)) { e =>
      val got = XFrame.source(e, "a", a).merge(XFrame.source(e, "b", b), Seq("k")).toDF()
      assert(e.stats.shuffleMerges == 1 && e.stats.broadcastMerges == 0, e.stats.toString)
      assertSameSet(got, a.join(b, Seq("k")))
    }
  }

  test("static planning always hash-shuffles merges") {
    val big = keys(20000)
    val dim = spark.range(1, 41).select(col("id") as "k", (col("id") * 10) as "d")
    withEngine(cfg(dynamic = false)) { e =>
      val got = XFrame.source(e, "big", big)
        .merge(XFrame.source(e, "dim", dim), Seq("k")).toDF()
      assert(e.stats.shuffleMerges == 1 && e.stats.broadcastMerges == 0)
      assertSameSet(got, big.join(dim, Seq("k")))
    }
  }

  test("left / semi / anti merges match Spark") {
    val a = keys(5000)
    val dim = spark.range(1, 21).select(col("id") as "k", (col("id") * 10) as "d")
    for (how <- Seq("left", "leftsemi", "leftanti")) {
      withEngine(cfg()) { e =>
        val got = XFrame.source(e, "a", a).merge(XFrame.source(e, "dim", dim), Seq("k"), how).toDF()
        assertSameSet(got, a.join(dim, Seq("k"), how))
      }
    }
  }

  test("merge rejects a join it cannot tile, naming it; crossMerge still works") {
    withEngine(cfg()) { e =>
      val a = XFrame.source(e, "a", keys(100)); val b = XFrame.source(e, "b", keys(10))
      // A broadcast right side would emit its unmatched rows once per left chunk.
      for (how <- Seq("outer", "full", "right", "cross")) {
        val err = intercept[IllegalArgumentException](a.merge(b, Seq("k"), how))
        assert(err.getMessage.contains(s"'$how'"), err.getMessage)
      }
      assert(a.crossMerge(b.groupby().agg(CountAgg("n"))).count() == 100)
    }
  }

  test("merge without key columns fails when built, pointing to crossMerge") {
    // A keyless merge on the shuffle path hashes each side on its own
    // columns, so it would join only matching buckets of the product.
    val a = keys(40)
    val b = SynthData.uniformKeys(spark, 30, 40, seed = 6).select(col("k") as "k2", col("v") as "v2")
    for (dynamic <- Seq(true, false)) withEngine(cfg(limit = 1 << 10, dynamic = dynamic)) { e =>
      val (l, r) = (XFrame.source(e, "a", a), XFrame.source(e, "b", b))
      val err = intercept[IllegalArgumentException](l.merge(r, Seq.empty))
      assert(err.getMessage.contains("crossMerge"), err.getMessage)
      assert(e.stats.subtasksExecuted == 0, "nothing may run")
      withClue(s"dynamic=$dynamic: ")(assertLikeSpark(l.crossMerge(r).toDF(), a.crossJoin(b)))
    }
  }

  test("overlapping non-key columns get pandas-style _x/_y suffixes") {
    val a = keys(2000)
    val b = keys(100).withColumnRenamed("k", "kk").withColumnRenamed("v", "v")
      .select(col("kk") as "k", col("v"))
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "a", a).merge(XFrame.source(e, "b2", b), Seq("k")).toDF()
      assert(got.columns.sorted.sameElements(Array("k", "v_x", "v_y")))
    }
  }

  test("semi and anti merges keep an overlapping left column's name, broadcast or shuffled") {
    val a = keys(5000)
    val dim = spark.range(1, 21).select(col("id") as "k", (col("id") * 10).cast("double") as "v")
    // The dynamic engine broadcasts `dim`; the static one shuffles both sides.
    for (dynamic <- Seq(true, false); how <- Seq("leftsemi", "leftanti")) withEngine(cfg(dynamic = dynamic)) { e =>
      val got = XFrame.source(e, "a", a).merge(XFrame.source(e, "dim", dim), Seq("k"), how).toDF()
      assert((e.stats.broadcastMerges, e.stats.shuffleMerges) == (if (dynamic) (1, 0) else (0, 1)), e.stats.toString)
      withClue(s"dynamic=$dynamic $how: ")(assertLikeSpark(got, a.join(dim, Seq("k"), how)))
    }
  }

  test("a static shuffle reduce stores each map output once: M + R chunks") {
    val src = keys(20000) // 20,000 × 16 B: M = 4 chunks at 100 KiB
    val e = Engines.static(spark, 100L << 10, reducers = 3)
    try {
      val f = XFrame.source(e, "t", src)
      assert(f.numChunks() == 4)
      val g = f.groupby("k").agg(SumAgg("v", "sv"))
      assert(g.numChunks() == 3)
      val got = g.toDF()
      assert(e.stats.shuffleReduces == 1 && e.stats.chunksMaterialized == 4 + 3, e.stats.toString)
      assertLikeSpark(got, src.groupBy("k").agg(sum("v") as "sv"))
    } finally e.reset()
  }

  test("a static shuffle merge stores each input chunk once: M_l + M_r + R chunks") {
    val a = SynthData.uniformKeys(spark, 20000, 5000, seed = 13) // 4 chunks at 100 KiB
    val b = SynthData.uniformKeys(spark, 12000, 5000, seed = 14).withColumnRenamed("v", "w") // 2 chunks
    val e = Engines.static(spark, 100L << 10, reducers = 3)
    try {
      val (l, r) = (XFrame.source(e, "a", a), XFrame.source(e, "b", b))
      assert((l.numChunks(), r.numChunks()) == ((4, 2)))
      val m = l.merge(r, Seq("k"))
      assert(m.numChunks() == 3)
      val got = m.toDF()
      assert(e.stats.shuffleMerges == 1 && e.stats.chunksMaterialized == 4 + 2 + 3, e.stats.toString)
      assertLikeSpark(got, a.join(b, Seq("k")))
    } finally e.reset()
  }

  test("shuffle reduces and merges match Spark on the static and no-graph-fusion arms") {
    // At 32 KiB every input is several chunks and over the broadcast
    // threshold, so both arms shuffle every merge and reduce.
    val limit = 32L << 10
    val a = SynthData.uniformKeys(spark, 20000, 5000, seed = 13)
    val b = SynthData.uniformKeys(spark, 12000, 5000, seed = 14).withColumn("w", col("v") * 2)
    val x = SynthData.uniformKeys(spark, 4000, 2000, seed = 15)
    val flags = a.select(col("k"), (col("v") < 0.5) as "f")
    def suffixed(l: DataFrame, r: DataFrame, how: String) =
      l.withColumnRenamed("v", "v_x").join(r.withColumnRenamed("v", "v_y"), Seq("k"), how)
    // Each program builds its result from the frames it returns with it.
    val programs: Seq[(String, Engine => (XFrame, Seq[XFrame]), DataFrame)] =
      Seq("inner", "left", "leftsemi", "leftanti").map { how =>
        val want = if (how == "leftsemi" || how == "leftanti") a.join(b, Seq("k"), how) else suffixed(a, b, how)
        (s"merge $how", (e: Engine) => {
          val (l, r) = (XFrame.source(e, "a", a), XFrame.source(e, "b", b))
          (l.merge(r, Seq("k"), how), Seq(l, r))
        }, want)
      } ++ Seq(
        ("dropDuplicates()", (e: Engine) => {
          val f = XFrame.source(e, "flags", flags)
          (f.dropDuplicates(), Seq(f))
        }, flags.distinct()),
        ("self-merge", (e: Engine) => {
          val f = XFrame.source(e, "x", x)
          (f.merge(f, Seq("k")), Seq(f))
        }, suffixed(x, x, "inner")))
    val arms = Seq[(String, () => Engine)](
      "static" -> (() => Engines.static(spark, limit)), "noGraphFusion" -> (() => Engines.noGraphFusion(spark, limit)))
    for ((arm, mk) <- arms; (name, program, want) <- programs) {
      val e = mk()
      try withClue(s"$arm, $name: ") {
        val (f, ins) = program(e)
        assertLikeSpark(f.toDF(), want)
        val st = e.stats
        assert(st.shuffleReduces + st.shuffleMerges == 1 && st.broadcastMerges == 0, st.toString)
        // The static arm fuses each source chunk with its map, if any, and
        // stores the result once, however many reducers read it.
        if (arm == "static") assert(st.chunksMaterialized == ins.map(_.numChunks()).sum + f.numChunks(), st.toString)
      } finally e.reset()
    }
  }

  test("a chunk that two tasks of one subtask read is stored, and computed once") {
    withEngine(cfg()) { e =>
      val calls = spark.sparkContext.longAccumulator("w calls")
      val counted = udf((v: Double) => { calls.add(1); v * 2 })
      val src = keys(1000)
      val w = XFrame.source(e, "t", src).withColumn("w", counted(col("v")))
      assert(w.numChunks() == 1)
      // One subtask: source, w, both filters and both groupby maps; the
      // filters read w's chunk.
      val got = w.filter(col("w") < 1.0).concat(w.filter(col("w") > 1.5))
        .groupby("k").agg(SumAgg("w", "sw")).toDF()
      assert(calls.value == 1000, s"${calls.value} calls of w's UDF for 1000 rows")
      assert(e.isMaterialized(e.tile(w.tileable).head), "w's chunk must be in the storage service")
      val want = src.withColumn("w", col("v") * 2)
      assertLikeSpark(got,
        want.filter(col("w") < 1.0).unionByName(want.filter(col("w") > 1.5)).groupBy("k").agg(sum("w") as "sw"))
    }
  }

  test("iloc on a filtered frame returns the exact positional row (Fig 3c)") {
    val src = keys(20000)
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "t", src).filter(col("v") < 0.3).iloc(10).toDF().collect()
      val want = src.filter(col("v") < 0.3).collect()(10)
      assert(got.length == 1)
      assert(got(0).toSeq == want.toSeq)
    }
  }

  test("iloc slice spans chunk boundaries correctly") {
    val src = keys(20000)
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", src).filter(col("v") < 0.5)
      val perChunkRows = f.count() // materializes chunks
      val got = XFrame.source(e, "t", src).filter(col("v") < 0.5)
        .ilocRange(3990, 4010).toDF().collect()
      val want = src.filter(col("v") < 0.5).collect().slice(3990, 4010)
      assert(got.map(_.toSeq).sameElements(want.map(_.toSeq)))
      assert(perChunkRows >= 4010)
    }
  }

  test("iloc past the end yields an empty frame") {
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "t", keys(100)).iloc(1000).toDF()
      assert(got.count() == 0)
    }
  }

  test("head returns the first n rows in order") {
    val src = keys(20000)
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "t", src).head(11).toDF().collect()
      val want = src.collect().take(11)
      assert(got.map(_.toSeq).sameElements(want.map(_.toSeq)))
    }
  }

  test("negative iloc, ilocRange and head positions fail when the frame is built, naming the call") {
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", keys(100))
      val calls = Seq[(String, () => XFrame)](
        "iloc(-1)" -> (() => f.iloc(-1)),
        "ilocRange(-3, 5)" -> (() => f.ilocRange(-3, 5)),
        "ilocRange(2, -1)" -> (() => f.ilocRange(2, -1)),
        "head(-3)" -> (() => f.head(-3)))
      for ((call, build) <- calls) {
        val err = intercept[IllegalArgumentException](build())
        assert(err.getMessage.contains(call), err.getMessage)
      }
      assert(e.stats.subtasksExecuted == 0, "nothing may run")
    }
  }

  test("iloc requires dynamic tiling (static engines reject it, like Dask)") {
    withEngine(cfg(dynamic = false)) { e =>
      assertThrows[UnsupportedOperationException] {
        XFrame.source(e, "t", keys(100)).iloc(3).toDF()
      }
    }
  }

  test("iloc inside an unordered chunk fails at tile time with a named error") {
    withEngine(cfg()) { e =>
      // 40 groups: tree reduce into one chunk, whose rows are in no order.
      val grouped = XFrame.source(e, "t", keys(20000)).groupby("k").agg(SumAgg("v", "sv"))
      val err = intercept[UnorderedLineageException](grouped.iloc(3).toDF())
      assert(err.getMessage.contains("GroupbyAgg::agg[0]"), err.getMessage)
      assert(!e.stats.traces.exists(_.labels.exists(_.startsWith("ILoc"))),
        "no iloc task may exist, let alone run")
    }
  }

  test("sort produces globally ordered output split into chunks") {
    val src = keys(20000)
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", src).sortValues(Seq("v"), Seq(false))
      val got = f.toDF().collect().map(_.getDouble(1))
      assert(f.numChunks() > 1, "sorted result should re-split into chunks")
      assert(got.sameElements(got.sorted(Ordering[Double].reverse)))
    }
  }

  test("iloc after sort works (sort regenerates the distributed index)") {
    val src = keys(20000)
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "t", src).sortValues("v").iloc(5).toDF().collect()
      val want = src.orderBy("v").collect()(5)
      assert(got(0).getDouble(1) == want.getDouble(1))
    }
  }

  /** 20,000 rows over 7 partitions: 5 chunks at 64 KiB, cut across
    * partition boundaries.
    */
  private def sevenParts = spark.range(0, 20000, 1, 7).select(
    (rand(7) * 40 + 1).cast("long") as "k", rand(8) as "v")

  test("indexing a multi-partition source runs one Spark job; its chunks have the source's columns") {
    val src = sevenParts
    assert(src.rdd.getNumPartitions == 7)
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", src)
      val (chunks, probe) = JobProbe(spark.sparkContext)(e.tile(f.tileable))
      assert(probe.jobs == 1, s"indexing ran ${probe.jobs} Spark jobs")
      assert(probe.tasks == 7, s"indexing ran ${probe.tasks} tasks, not one per source partition")
      assert(chunks.size == 5)
      assert(f.toDF().collect().map(_.toSeq).sameElements(src.collect().map(_.toSeq)))
      chunks.foreach(c => assert(e.storage.read(e.keyOf(c)).columns.sameElements(src.columns)))
    }
  }

  test("sources are indexed once per DataFrame, whatever name they come under") {
    val a = spark.range(10).select(col("id") as "k")
    val b = spark.range(100, 105).select(col("id") as "k")
    withEngine(cfg()) { e =>
      assertSameSet(XFrame.source(e, "t", a).toDF(), a)
      assertSameSet(XFrame.source(e, "t", b).toDF(), b)
      val (_, probe) = JobProbe(spark.sparkContext)(e.tile(XFrame.source(e, "t2", a).tileable))
      assert(probe.jobs == 0, s"re-sourcing an indexed DataFrame ran ${probe.jobs} Spark jobs")
    }
  }

  test("a caller-cached source is indexed over the caller's cache, which reset leaves cached") {
    val sc = spark.sparkContext
    def blockBytes = sc.getRDDStorageInfo.map(r => r.memSize + r.diskSize).sum
    val src = sevenParts.persist()
    try {
      src.count()
      val before = blockBytes
      val e = new Engine(spark, cfg())
      val f = XFrame.source(e, "t", src)
      val (_, probe) = JobProbe(sc)(e.tile(f.tileable))
      assert(probe.jobs == 1 && probe.tasks == 7)
      assert(blockBytes == before, "indexing a cached source added block-manager bytes")
      assert(f.iloc(4321).toDF().collect().map(_.toSeq).sameElements(Array(src.collect()(4321).toSeq)))
      e.reset()
      assert(src.storageLevel.useMemory, "reset uncached the caller's source")
      assert(sc.getRDDStorageInfo.exists(r => r.numCachedPartitions == 7 && r.memSize > 0),
        "reset dropped the blocks of the caller's source")
    } finally src.unpersist(true)
  }

  test("a source whose partitions have cached locations only in part keeps its row order") {
    // Spark's default coalescer would put the cached partitions first.
    val cached = spark.range(1000, 2000, 1, 2).select(col("id") as "k").persist()
    try {
      cached.count()
      val src = spark.range(0, 1000, 1, 2).select(col("id") as "k").union(cached)
      for (limit <- Seq(64L << 10, 4L << 10)) withEngine(cfg(limit = limit)) { e =>
        val f = XFrame.source(e, "t", src)
        withClue(s"limit=$limit: ") {
          assert(f.head(3).toDF().collect().map(_.getLong(0)).toSeq == Seq(0L, 1L, 2L))
          assert(f.toDF().collect().map(_.getLong(0)).toSeq == (0L until 2000L))
        }
      }
    } finally cached.unpersist(true)
  }

  test("iloc after a chunk-local function returns Spark's row at that position") {
    val src = sevenParts
    val want = src.collect()
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", src).mapChunks("proj")(_.select("k", "v"))
      for (i <- Seq(0, 4321, 19999)) {
        val got = f.iloc(i).toDF().collect()
        assert(got.map(_.toSeq).sameElements(Array(want(i).toSeq)), s"row $i")
      }
    }
  }

  test("iloc across a sort-split boundary reads spilled chunks in sort order") {
    val src = sevenParts
    val limit = 64L << 10
    val e = new Engine(spark, Engines.xorbits(spark, limit).config.copy(memoryBudget = limit / 2))
    try {
      val sorted = XFrame.source(e, "t", src).sortValues("v")
      val splits = e.tile(sorted.tileable)
      assert(splits.size > 1 && splits.forall(_.label.startsWith("Sort::split")))
      sorted.count()
      val k = e.metaOf(splits.head).get.rows
      val got = sorted.ilocRange(k - 2, k + 2).toDF().collect()
      val want = src.orderBy("v").collect().slice(k.toInt - 2, k.toInt + 2)
      assert(got.map(_.toSeq).sameElements(want.map(_.toSeq)))
      assert(e.storage.stats.spills > 0, e.storage.stats.toString)
      assert(splits.take(2).forall(c => e.storage.tierOf(e.keyOf(c)).contains(Tier.Disk)),
        "both cut chunks must have been read from the disk tier")
    } finally e.reset()
  }

  test("a freed chunk is computed again by the next collect") {
    val src = keys(20000)
    val want = src.filter(col("v") < 0.5).collect()
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "t", src).filter(col("v") < 0.5)
      f.toDF()
      val chunks = e.tile(f.tileable)
      assert(chunks.size > 1 && chunks.forall(e.isMaterialized))
      e.storage.free(e.keyOf(chunks(1)))
      assert(!e.isMaterialized(chunks(1)))
      assert(f.toDF().collect().map(_.toSeq).sameElements(want.map(_.toSeq)))
      assert(chunks.forall(e.isMaterialized))
    }
  }

  test("dropDuplicates matches Spark distinct") {
    val src = keys(20000).select(col("k"), (col("v") < 0.5) as "b")
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "t", src).dropDuplicates().toDF()
      assertSameSet(got, src.distinct())
    }
  }

  test("dropDuplicates with subset keeps one row per key") {
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "t", keys(20000)).dropDuplicates("k").toDF()
      assert(got.count() == 40)
      assert(got.select("k").distinct().count() == 40)
    }
  }

  test("concat unions chunks of both frames") {
    val a = keys(5000); val b = SynthData.uniformKeys(spark, 3000, 40, seed = 9)
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "a", a).concat(XFrame.source(e, "b", b)).toDF()
      assert(got.count() == 8000)
      assertSameSet(got, a.unionByName(b))
    }
  }

  test("pivot table matches Spark pivot") {
    val src = spark.range(2000).select(
      (col("id") % 7) as "r",
      element_at(array(lit("a"), lit("b"), lit("c")), (col("id") % 3 + 1).cast("int")) as "c",
      (col("id") % 100).cast("double") as "v")
    withEngine(cfg()) { e =>
      val got = XFrame.source(e, "p", src).pivotTable("r", "c", "v", "sum").toDF()
      assertSameSet(got, src.groupBy("r").pivot("c").sum("v"))
    }
  }

  test("pivot table rejects an unknown aggfunc when the frame is built") {
    withEngine(cfg()) { e =>
      val f = XFrame.source(e, "p", keys(100))
      val err = intercept[IllegalArgumentException](f.pivotTable("k", "k", "v", "median"))
      assert(err.getMessage.contains("'median'"), err.getMessage)
      assert(e.stats.subtasksExecuted == 0, "nothing may run")
    }
  }

  test("concat and a whole-chunk iloc reuse their input chunks: nothing stored, rows in order") {
    val a = keys(5000) // 2 chunks at 64 KiB
    val b = SynthData.uniformKeys(spark, 3000, 40, seed = 9)
    withEngine(cfg()) { e =>
      val fa = XFrame.source(e, "a", a); val fb = XFrame.source(e, "b", b)
      fa.toDF(); fb.toDF()
      val aChunks = e.tile(fa.tileable)
      assert(aChunks.size == 2)
      val firstRows = e.metaOf(aChunks.head).get.rows
      val puts = e.storage.stats.puts
      val both = fa.concat(fb)
      assertSameRows(both.toDF().collect(), a.unionByName(b).collect())
      val first = fa.ilocRange(0, firstRows).toDF().collect()
      assert(e.storage.stats.puts == puts, "concat and a whole-chunk slice must store nothing")
      val aRows = a.collect()
      assert(first.map(_.toSeq).sameElements(aRows.take(firstRows.toInt).map(_.toSeq)))
      // Two rows on each side of the concat boundary, in row order.
      val k = aRows.length
      val across = both.ilocRange(k - 2, k + 2).toDF().collect()
      val want = (aRows ++ b.collect()).slice(k - 2, k + 2)
      assert(across.map(_.toSeq).sameElements(want.map(_.toSeq)))
    }
  }

  test("a chunk is one Spark partition: no stage of a run writes shuffle output") {
    // 8000 × 16 B = 125 KiB per fact table: 4 chunks at a 32 KiB limit,
    // while the session would plan 64 partitions for any exchange.
    val limit = 32L << 10
    val facts = SynthData.uniformKeys(spark, 8000, 2000, seed = 11)
    val other = SynthData.uniformKeys(spark, 8000, 2000, seed = 12).withColumnRenamed("v", "w")
    val dim = spark.range(0, 40).select(col("id") as "g", (col("id") * 10) as "d")
    def frames(e: Engine): Seq[XFrame] = {
      val joined = XFrame.source(e, "facts", facts)
        .merge(XFrame.source(e, "other", other), Seq("k")) // both sides large: shuffle merge
        .withColumn("g", col("k") % 40)
        .merge(XFrame.source(e, "dim", dim), Seq("g"))     // 40 rows: broadcast merge
      val mean = joined.groupby().agg(MeanAgg("w", "mw"))
      Seq(
        joined.groupby("g").agg(SumAgg("w", "sw")),                   // 40 groups: tree reduce
        joined.groupby("v").agg(SumAgg("w", "sw")).sortValues("sw"), // ~3k groups: shuffle reduce
        joined.select("g", "d").dropDuplicates(),
        joined.crossMerge(mean).filter(col("w") < col("mw")).groupby("d").agg(CountAgg("n")),
      )
    }
    val joinedRef = facts.join(other, Seq("k")).withColumn("g", col("k") % 40).join(dim, Seq("g"))
    val want = Seq(
      joinedRef.groupBy("g").agg(sum("w") as "sw"),
      joinedRef.groupBy("v").agg(sum("w") as "sw"),
      joinedRef.select("g", "d").distinct(),
      joinedRef.crossJoin(joinedRef.agg(avg("w") as "mw")).filter(col("w") < col("mw"))
        .groupBy("d").agg(count(lit(1)) as "n"),
    ).map(_.collect())
    val arms = Seq[(String, () => Engine)](
      "xorbits" -> (() => Engines.xorbits(spark, limit)),
      "static" -> (() => Engines.static(spark, limit)))
    // Each arm runs twice: once with every chunk in the memory tier, once
    // on a memory tier too small for them, so that chunks spill and are
    // read back from the disk tier.
    for ((name, mk) <- arms; spilling <- Seq(false, true)) {
      val arm = if (spilling) s"$name, spilling" else name
      val e = if (spilling) new Engine(spark, mk().config.copy(memoryBudget = limit / 2)) else mk()
      try {
        val (got, probe) = JobProbe(spark.sparkContext)(frames(e).map(_.toDF().collect()))
        assert(probe.jobs > 0)
        assert(probe.shuffleWriteStages.isEmpty,
          s"$arm: stages writing shuffle output: ${probe.shuffleWriteStages}")
        got.zip(want).foreach { case (g, w) => assertSameRows(g, w) }
        val sorted = got(1).map(_.getAs[Double]("sw"))
        assert(sorted.sameElements(sorted.sorted), s"$arm: sort output out of order")
        assert((e.storage.stats.spills > 0) == spilling, s"$arm: ${e.storage.stats}")
        val st = e.stats
        if (name == "xorbits")
          assert(st.treeReduces > 0 && st.shuffleReduces > 0 && st.broadcastMerges > 0 &&
            st.shuffleMerges > 0, s"$arm must take every plan: $st")
        else assert(st.shuffleReduces > 0 && st.shuffleMerges > 0, s"$arm: $st")
      } finally e.reset()
    }
  }

  test("a plan over stored chunks does not grow with the depth of the chunk DAG above it") {
    // Each level stores its chunks, then reads them through two paths that
    // meet again: a tree of the plans that built them would double per level.
    val src = keys(2000)
    def diamond(e: Engine, depth: Int): XFrame =
      (1 to depth).foldLeft(XFrame.source(e, "t", src)) { (f, _) =>
        f.filter(col("v") < 0.9).concat(f.filter(col("v") > 0.1))
          .groupby("k").agg(SumAgg("v", "v"))
      }
    def want(depth: Int): DataFrame =
      (1 to depth).foldLeft(src) { (df, _) =>
        df.filter(col("v") < 0.9).unionByName(df.filter(col("v") > 0.1)).groupBy("k").agg(sum("v") as "v")
      }
    val sizes = Seq(2, 4, 6).map { d =>
      withEngine(cfg(limit = 4 << 10)) { e =>
        val f = diamond(e, d)
        val got = f.filter(col("v") > 0).toDF()
        assertSameSet(got, want(d).filter(col("v") > 0))
        assert(e.stats.chunksMaterialized > 2 * d)
        d -> got.queryExecution.toString.length
      }
    }
    val (shallow, deep) = (sizes.head._2, sizes.last._2)
    assert(deep < shallow + shallow / 4, s"plan description length by depth: $sizes")
  }

  /** Three sources, each a one-chunk table with a slow narrow step, then
    * concatenated: one wave of three independent subtasks.
    */
  private def slowConcat(e: Engine, srcs: Seq[DataFrame]): XFrame = {
    val slow = udf((v: Double) => { Thread.sleep(1); v * 2 })
    srcs.zipWithIndex.map { case (df, i) =>
      XFrame.source(e, s"s$i", df).withColumn("w", slow(col("v")))
    }.reduce(_ concat _)
  }

  test("a wave's subtasks run concurrently, and every record of the run is deterministic") {
    val srcs = (1 to 3).map(i => SynthData.uniformKeys(spark, 150, 40, seed = 20 + i))
    val want = srcs.map(_.withColumn("w", col("v") * 2)).reduce(_ unionByName _).collect()
    for ((name, mk) <- Seq[(String, () => Engine)](
        "xorbits" -> (() => Engines.xorbits(spark, 64 << 10)),
        "static" -> (() => Engines.static(spark, 64 << 10)))) {
      def run(): (String, Seq[(Long, Seq[String], Int, Long, Long, Long)], Int) = {
        val e = mk()
        try {
          val f = slowConcat(e, srcs)
          val chunks = e.tile(f.tileable)
          assert(chunks.size == 3, s"$name: one chunk per source")
          val (got, probe) = JobProbe(spark.sparkContext)(f.toDF().collect())
          assertSameRows(got, want)
          assert(e.stats.subtasksExecuted == 3, s"$name: ${e.stats}")
          val traces = e.stats.traces.map(t =>
            (t.subtaskId, t.labels, t.band, t.inputBytes, t.outputBytes, t.remoteBytes))
          (s"${e.stats} ${e.storage.stats}", traces.toSeq, probe.maxConcurrentJobs)
        } finally e.reset()
      }
      val (stats1, traces1, overlap1) = run()
      val (stats2, traces2, overlap2) = run()
      assert(stats1 == stats2, s"$name: stats differ between runs")
      assert(traces1 == traces2, s"$name: traces differ between runs")
      assert(traces1.map(_._3).distinct.size == 3, s"$name: the wave spreads over three bands")
      assert(math.min(overlap1, overlap2) >= 2,
        s"$name: at most ${math.min(overlap1, overlap2)} Spark job(s) ran at a time")
    }
  }

  test("band threads are shared: many engines do not add threads beyond the band count") {
    val a = keys(50); val b = SynthData.uniformKeys(spark, 50, 40, seed = 9)
    var bands = 0
    for (_ <- 1 to 50) {
      val e = Engines.xorbits(spark, 64 << 10)
      bands = e.scheduler.numBands
      try XFrame.source(e, "a", a).concat(XFrame.source(e, "b", b)).toDF().collect()
      finally e.reset()
    }
    val n = Thread.getAllStackTraces.keySet.asScala.count(_.getName.startsWith("repro-band-"))
    assert(n > 0, "the two-wide waves ran on band threads")
    assert(n <= bands, s"$n band threads alive, more than the $bands bands")
  }

  test("a failing subtask fails its wave: original error, nothing committed, fills dropped") {
    withEngine(cfg()) { e =>
      val good = (1 to 2).map(i => XFrame.source(e, s"g$i", SynthData.uniformKeys(spark, 100, 40, seed = 30 + i)))
      // Fails on its band after the other subtasks have filled their chunks.
      val bad = XFrame.source(e, "bad", keys(100)).mapChunks("Boom") { _ =>
        Thread.sleep(500)
        throw new IllegalStateException("boom")
      }
      val chunks = e.tile((good :+ bad).reduce(_ concat _).tileable)
      val cachedBefore = spark.sparkContext.getPersistentRDDs.keySet
      val storageBefore = e.storage.stats
      val err = intercept[IllegalStateException](e.execute(chunks))
      assert(err.getMessage == "boom")
      // Nothing was committed.
      val st = e.stats
      assert(st.subtasksExecuted == 0 && st.tasksExecuted == 0 && st.chunksMaterialized == 0 &&
        st.narrowStepsFused == 0 && st.traces.isEmpty, st.toString)
      assert(e.storage.stats == storageBefore, e.storage.stats.toString)
      assert(!chunks.exists(e.isMaterialized))
      assert(spark.sparkContext.getPersistentRDDs.keySet == cachedBefore,
        "the chunks the failed wave filled must be unpersisted")
    }
  }

  test("a target that its own subtask also reads is computed once") {
    withEngine(cfg()) { e =>
      val calls = spark.sparkContext.longAccumulator("w calls")
      val counted = udf((v: Double) => { calls.add(1); v * 2 })
      val src = keys(1000)
      val x = XFrame.source(e, "t", src).withColumn("w", counted(col("v")))
      assert(x.numChunks() == 1)
      // One subtask: x's chunk is a target, and the filter in the same
      // subtask reads it.
      val got = x.concat(x.filter(col("w") > 1.0)).toDF()
      assert(calls.value == 1000, s"${calls.value} calls of w's UDF for 1000 rows")
      val want = src.withColumn("w", col("v") * 2)
      assertLikeSpark(got, want.unionByName(want.filter(col("w") > 1.0)))
    }
  }

  test("a task reading one stored chunk through two inputs records two reads of it") {
    withEngine(cfg()) { e =>
      val src = keys(200)
      val x = XFrame.source(e, "t", src)
      x.toDF()
      val bytes = e.metaOf(e.tile(x.tileable).head).get.bytes
      val m = x.merge(x, Seq("k"))
      val chunks = e.tile(m.tileable)
      val gets = e.storage.stats.gets
      val traces = e.stats.traces.size
      e.execute(chunks)
      val added = e.stats.traces.drop(traces)
      assert(added.map(_.labels) == Seq(Seq("Merge::join[0]")), added.toString)
      assert(e.storage.stats.gets - gets == 2)
      assert(added.head.inputBytes == 2 * bytes)
      assertLikeSpark(m.toDF(),
        src.withColumnRenamed("v", "v_x").join(src.withColumnRenamed("v", "v_y"), Seq("k")))
    }
  }

  test("graph fusion materializes far fewer chunks than no fusion") {
    val src = keys(20000)
    def run(graphFusion: Boolean): Long =
      withEngine(cfg(graphFusion = graphFusion)) { e =>
        XFrame.source(e, "t", src).filter(col("v") > 0.1)
          .withColumn("u", col("v") * 2).filter(col("u") < 1.5)
          .groupby("k").agg(SumAgg("u", "su")).toDF().count()
        e.stats.chunksMaterialized
      }
    val fused = run(true); val unfused = run(false)
    assert(fused < unfused, s"fusion should store fewer chunks ($fused vs $unfused)")
  }

  test("operator fusion collapses narrow chains (stats + equivalence)") {
    val src = keys(20000)
    // 5 chunks × 4 narrow steps; with graph fusion, each chunk's subtask
    // stores only its last step's output.
    for (graphFusion <- Seq(true, false)) withEngine(cfg(graphFusion = graphFusion)) { e =>
      val got = XFrame.source(e, "t", src).filter(col("v") > 0.1)
        .withColumn("u", col("v") * 2).filter(col("u") < 1.5)
        .withColumn("w", col("u") + 1).toDF()
      withClue(s"graphFusion=$graphFusion: ") {
        assert(e.stats.narrowStepsFused == (if (graphFusion) 15 else 0), e.stats.toString)
        assertLikeSpark(got, src.filter(col("v") > 0.1).withColumn("u", col("v") * 2)
          .filter(col("u") < 1.5).withColumn("w", col("u") + 1))
      }
    }
  }

  /** Runs `program` on `Engines.xorbits` and `Engines.noGraphFusion` at a
    * 64 KiB chunk limit, and compares each result with `program` on plain
    * Spark. Only with graph fusion on does a subtask run narrow operators
    * inside their consumers' plan, so these are also the arms with and
    * without operator-level fusion.
    */
  private def onBothFusionArms(program: String, src: DataFrame)(xf: XFrame => XFrame, want: DataFrame => DataFrame): Unit =
    for ((arm, mk) <- Seq[(String, () => Engine)](
        "xorbits" -> (() => Engines.xorbits(spark, 64 << 10)),
        "noGraphFusion" -> (() => Engines.noGraphFusion(spark, 64 << 10)))) {
      val e = mk()
      try withClue(s"$program, $arm: ")(assertLikeSpark(xf(XFrame.source(e, "t", src)).toDF(), want(src)))
      finally e.reset()
    }

  /** 5,000 keyed rows with two nullable columns, `a` (long) and `b`
    * (double): three chunks at a 64 KiB limit.
    */
  private def withNulls = keys(5000).select(col("k"), col("v"),
    when(col("k") % 2 === 0, col("k")) as "a", when(col("k") % 3 === 0, col("v")) as "b")

  test("fillna on named columns, on all columns and with a Double matches Spark on both operator-fusion arms") {
    val src = withNulls
    assert(src.filter(col("a").isNull).count() > 0 && src.filter(col("b").isNull).count() > 0)
    onBothFusionArms("fillna of a", src)(_.fillna(-1L, "a"), _.na.fill(-1L, Seq("a")))
    onBothFusionArms("fillna of every column", src)(_.fillna(-1L), _.na.fill(-1L))
    onBothFusionArms("fillna of b with a Double", src)(_.fillna(0.5, "b"), _.na.fill(0.5, Seq("b")))
  }

  test("mapChunks matches Spark on both operator-fusion arms") {
    onBothFusionArms("mapChunks", withNulls)(
      _.mapChunks("double")(_.withColumn("dd", col("k") * 2)),
      _.withColumn("dd", col("k") * 2))
  }

  test("column steps keep Spark's column order on both operator-fusion arms") {
    val src = keys(2000)
    val six = Seq("a" -> (col("k") + 1), "b" -> (col("v") * 2), "c" -> (col("k") % 3),
      "d" -> (col("v") + 1), "e" -> lit(5), "h" -> (col("k") * 7))
    onBothFusionArms("six withColumn", src)(
      f => six.foldLeft(f) { case (x, (n, c)) => x.withColumn(n, c) },
      df => six.foldLeft(df) { case (x, (n, c)) => x.withColumn(n, c) })
    val five = six.take(5)
    onBothFusionArms("one withColumns of five", src)(
      _.withColumns(five: _*),
      df => five.foldLeft(df) { case (x, (n, c)) => x.withColumn(n, c) })
  }

  test("a column step over * sees the columns added before it on both operator-fusion arms") {
    onBothFusionArms("withColumn over *", keys(2000))(
      _.withColumn("e", lit(5)).withColumn("h", hash(col("*"))),
      _.withColumn("e", lit(5)).withColumn("h", hash(col("*"))))
  }

  test("subtask traces record band assignments across all bands") {
    withEngine(cfg()) { e =>
      XFrame.source(e, "t", keys(40000)).groupby("k").agg(SumAgg("v", "sv")).toDF()
      val bands = e.stats.traces.map(_.band).toSet
      assert(bands.size > 1, "work should spread over multiple bands")
      assert(bands.forall(b => b >= 0 && b < e.scheduler.numBands))
    }
  }

  test("locality-aware scheduling keeps most reads band-local") {
    withEngine(cfg()) { e =>
      XFrame.source(e, "t", keys(40000)).filter(col("v") > 0.2)
        .groupby("k").agg(SumAgg("v", "sv")).toDF()
      assert(e.stats.remoteBytes <= e.stats.traces.map(_.inputBytes).sum)
    }
  }

  test("reset clears storage and allows reuse of the engine's session") {
    val e = new Engine(spark, cfg())
    XFrame.source(e, "t", keys(1000)).toDF().count()
    e.reset()
    assert(e.storage.stats.memBytes == 0)
  }
}
