package repro.storage

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.physical.SinglePartition
import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.functions._

import repro.{JobProbe, SparkSpec}
import repro.core.ChunkMeta

class StorageSpec extends SparkSpec {

  private def df(n: Int, seed: Long = 0) =
    spark.range(n).select(col("id"), rand(seed).as("v"))

  /** A put as the engine makes it: fill, then register; a fill that is
    * not registered is dropped.
    */
  private def put(s: StorageService, key: String, df: DataFrame, band: Int): ChunkMeta = {
    val filled = s.putFill(key, df)
    try s.putRegister(key, filled, band)
    catch { case e: Throwable => s.discard(filled); throw e }
  }

  /** A chunk is one partition, and the plan says so: Spark then plans no
    * shuffle over it.
    */
  private def onePartition(df: DataFrame): Boolean =
    df.queryExecution.executedPlan.outputPartitioning == SinglePartition

  test("put records exact row count and width-based bytes") {
    val s = new StorageService(1L << 30)
    val meta = put(s, "a", df(100), band = 0)
    assert(meta.rows == 100)
    assert(meta.bytes == 100 * 16) // id long + v double
    s.reset()
  }

  test("put of a multi-partition input stores one partition in one Spark job") {
    val s = new StorageService(1L << 30)
    // Counts the rows the input's plan computes.
    val computed = spark.sparkContext.longAccumulator
    val seen = udf((id: Long) => { computed.add(1); id }).asNondeterministic()
    val input = spark.range(0, 1000, 1, numPartitions = 8).select(seen(col("id")) as "id", rand(3).as("v"))
    assert(input.rdd.getNumPartitions == 8)
    computed.reset()
    val (meta, probe) = JobProbe(spark.sparkContext)(put(s, "a", input, 0))
    assert(meta.rows == 1000)
    assert(probe.jobs == 1, s"put ran ${probe.jobs} Spark jobs")
    assert(computed.value == 1000)
    val got = s.get("a", 0)
    assert(onePartition(got))
    val cache = spark.sparkContext.getRDDStorageInfo.filter(_.name == "In-memory table a")
    assert(cache.length == 1, "the chunk's cache is named after its key")
    assert(cache.head.numPartitions == 1 && cache.head.numCachedPartitions == 1,
      "the cache must hold one partition")
    assert(got.collect().map(_.getLong(0)).sorted.sameElements(0L until 1000L))
    assert(computed.value == 1000, "reading the chunk computed its input again")
    s.reset()
  }

  test("a put of a one-partition groupBy or offset/limit chunk runs one Spark job") {
    val s = new StorageService(1L << 30)
    put(s, "in", spark.range(0, 1000, 1, 1).select(col("id") % 10 as "k", col("id") as "v"), 0)
    val in = s.read("in")
    val chunks = Seq(
      "grouped" -> in.groupBy("k").agg(sum("v") as "s"),
      "cut" -> in.offset(100).limit(50))
    for ((key, df) <- chunks) {
      val (meta, probe) = JobProbe(spark.sparkContext)(put(s, key, df, 0))
      assert(probe.jobs == 1, s"put of $key ran ${probe.jobs} Spark jobs")
      assert(meta.rows == df.count())
      assert(onePartition(s.read(key)))
    }
    assert(s.read("cut").collect().map(_.getLong(1)).sameElements(100L until 150L))
    s.reset()
  }

  test("a put with a stored chunk's plan and schema shares it: no job, no bytes") {
    def chunk(name: String) = spark.range(0, 100, 1, 1).select(col("id"), (col("id") * 2) as name)
    val s = new StorageService(1L << 30)
    put(s, "a", chunk("v"), 0)
    val bytes = s.stats.memBytes
    val (_, probe) = JobProbe(spark.sparkContext)(put(s, "b", chunk("v"), 1))
    assert(probe.jobs == 0, s"a shared put ran ${probe.jobs} Spark jobs")
    assert(s.stats.memBytes == bytes && s.stats.puts == 2)
    assert(s.meta("b") == s.meta("a") && s.bandOf("b").contains(0))
    s.free("a")
    assert(!s.contains("a") && s.stats.memBytes == bytes)
    assert(s.get("b", 0).collect().map(r => (r.getLong(0), r.getLong(1))).sameElements((0L until 100L).map(i => (i, 2 * i))))
    s.free("b")
    assert(s.stats.memBytes == 0)
    assert(!spark.sparkContext.getRDDStorageInfo.exists(_.name == "In-memory table a"))
    s.reset()
  }

  test("a renamed column or a nondeterministic plan is not shared") {
    val s = new StorageService(1L << 30)
    val base = spark.range(0, 100, 1, 1)
    put(s, "a", base.select(col("id"), (col("id") * 2) as "v"), 0)
    val (_, renamed) = JobProbe(spark.sparkContext)(put(s, "b", base.select(col("id"), (col("id") * 2) as "w"), 0))
    assert(renamed.jobs == 1 && s.stats.memBytes == 2 * 100 * 16)
    assert(s.read("b").columns.sameElements(Array("id", "w")))
    put(s, "c", df(100, seed = 5), 0)
    val (_, random) = JobProbe(spark.sparkContext)(put(s, "d", df(100, seed = 5), 0))
    assert(random.jobs == 1 && s.stats.memBytes == 4 * 100 * 16)
    s.reset()
  }

  test("discarding a shared fill keeps the stored chunk it shares") {
    val s = new StorageService(1L << 30)
    val chunk = spark.range(0, 100, 1, 1).select(col("id"))
    put(s, "a", chunk, 0)
    val filled = s.putFill("b", chunk)
    s.discard(filled)
    assert(spark.sparkContext.getRDDStorageInfo.exists(_.name == "In-memory table a"))
    assert(s.get("a", 0).count() == 100)
    s.reset()
  }

  test("putFill fills the cache in one job and registers nothing until putRegister") {
    val s = new StorageService(1L << 30)
    val (filled, probe) = JobProbe(spark.sparkContext)(s.putFill("a", df(40)))
    assert(probe.jobs == 1 && filled.meta.rows == 40)
    assert(!s.contains("a") && s.stats.puts == 0)
    val (meta, registering) = JobProbe(spark.sparkContext)(s.putRegister("a", filled, band = 1))
    assert(registering.jobs == 0 && meta == filled.meta)
    assert(s.bandOf("a").contains(1) && s.stats.puts == 1)
    // A read counts nothing; recordGet counts it as `get` does.
    assert(s.read("a").count() == 40 && s.stats.gets == 0)
    s.recordGet("a", 0)
    assert(s.stats.gets == 1 && s.stats.remoteGets == 1)
    s.reset()
  }

  test("get returns the stored rows") {
    val s = new StorageService(1L << 30)
    put(s, "a", df(50), 0)
    assert(s.get("a", 0).count() == 50)
    s.reset()
  }

  test("get of a missing key fails") {
    val s = new StorageService(1L << 30)
    assertThrows[NoSuchElementException](s.get("nope", 0))
    s.reset()
  }

  test("duplicate put rejected") {
    val s = new StorageService(1L << 30)
    put(s, "a", df(10), 0)
    assertThrows[IllegalArgumentException](put(s, "a", df(10), 0))
    s.reset()
  }

  test("local vs remote gets tracked by band") {
    val s = new StorageService(1L << 30)
    put(s, "a", df(10), band = 2)
    s.get("a", 2); s.get("a", 3)
    val st = s.stats
    assert(st.localGets == 1 && st.remoteGets == 1)
    s.reset()
  }

  test("over-budget puts spill LRU chunks to the disk tier") {
    val s = new StorageService(memoryBudget = 40 * 16) // room for ~40 rows
    put(s, "a", df(30, 1), 0) // 480 B
    put(s, "b", df(30, 2), 0) // now 960 B > 640 → "a" spills
    assert(s.tierOf("a").contains(Tier.Disk))
    assert(s.tierOf("b").contains(Tier.Memory))
    assert(s.stats.spills == 1)
    s.reset()
  }

  test("spilled chunks read back identically from the disk tier") {
    // Spark plans the join adaptively and reports its partitioning as
    // unknown; read back from the disk tier, it must still be one partition.
    val dim = spark.range(0, 10, 1, 1).select(col("id") as "k", (col("id") * 2) as "d")
    val joined = df(30, 4).select((col("id") % 10) as "k", col("v")).join(broadcast(dim), Seq("k"))
    assert(!onePartition(joined))
    for (a <- Seq(df(30, 7), joined)) {
      val s = new StorageService(memoryBudget = 40 * 16)
      val expect = a.collect().map(_.toSeq.toString).sorted
      put(s, "a", a, 0)
      put(s, "b", df(30, 8), 0)
      assert(s.tierOf("a").contains(Tier.Disk))
      val back = s.get("a", 0)
      assert(onePartition(back))
      val got = back.collect().map(_.toSeq.toString).sorted
      assert(got.sameElements(expect))
      s.reset()
    }
  }

  test("get of a spilled chunk runs no Spark job and scans no file") {
    val s = new StorageService(memoryBudget = 40 * 16)
    put(s, "a", df(30, 7), 0)
    val (_, evicting) = JobProbe(spark.sparkContext)(put(s, "b", df(30, 8), 0))
    assert(s.tierOf("a").contains(Tier.Disk))
    assert(evicting.jobs == 2, s"the evicting put ran ${evicting.jobs} Spark jobs, not put + spill")
    val (back, probe) = JobProbe(spark.sparkContext)(s.get("a", 0))
    assert(probe.jobs == 0, s"get of a spilled chunk ran ${probe.jobs} Spark jobs")
    val plan = back.queryExecution.executedPlan
    assert(plan.collect { case f: FileSourceScanExec => f }.isEmpty, s"get scans files:\n$plan")
    assert(back.count() == 30)
    s.reset()
  }

  test("free and reset release the blocks of both tiers") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keys.toSet
    def held = sc.getPersistentRDDs.keys.toSet -- before
    val s = new StorageService(memoryBudget = 40 * 16)
    put(s, "a", df(30, 1), 0)
    put(s, "b", df(30, 2), 0)
    assert(s.tierOf("a").contains(Tier.Disk))
    assert(held.size == 2, s"b's cache and a's disk block: $held")
    s.free("a")
    assert(held.size == 1, s"free of a spilled chunk left $held")
    put(s, "c", df(30, 3), 0) // spills b
    assert(s.tierOf("b").contains(Tier.Disk))
    s.reset()
    assert(held.isEmpty, s"reset left $held")
  }

  test("LRU eviction spills the least recently used chunk") {
    val s = new StorageService(memoryBudget = 70 * 16)
    put(s, "a", df(30, 1), 0)
    put(s, "b", df(30, 2), 0)
    s.get("a", 0) // touch a → b becomes LRU
    put(s, "c", df(30, 3), 0)
    assert(s.tierOf("b").contains(Tier.Disk))
    assert(s.tierOf("a").contains(Tier.Memory))
    s.reset()
  }

  test("free removes a chunk and releases memory accounting") {
    val s = new StorageService(1L << 30)
    put(s, "a", df(100), 0)
    val before = s.stats.memBytes
    s.free("a")
    assert(s.stats.memBytes == before - 100 * 16)
    assert(!s.contains("a"))
    s.reset()
  }

  test("peak memory tracks the high-water mark") {
    val s = new StorageService(1L << 30)
    put(s, "a", df(100), 0)
    s.free("a")
    put(s, "b", df(10), 0)
    assert(s.stats.peakMemBytes == 100 * 16)
    s.reset()
  }

  test("meta and bandOf are queryable after put") {
    val s = new StorageService(1L << 30)
    put(s, "a", df(5), band = 3)
    assert(s.meta("a").exists(_.rows == 5))
    assert(s.bandOf("a").contains(3))
    assert(s.meta("zz").isEmpty)
    s.reset()
  }

  test("reset clears everything") {
    val s = new StorageService(1L << 30)
    put(s, "a", df(5), 0); put(s, "b", df(5), 0)
    s.reset()
    assert(!s.contains("a") && !s.contains("b"))
    assert(s.stats.memBytes == 0)
  }
}
