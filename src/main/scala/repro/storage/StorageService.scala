package repro.storage

import scala.collection.mutable

import org.apache.spark.TaskContext
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.storage.{StorageLevel => SparkLevel}

import repro.core.{ChunkMeta, SchemaBytes}

/** Storage tier of a chunk (paper §V-C StorageLevel). */
sealed trait Tier
object Tier {
  /** In-memory (Spark cache, the shared-memory analog). */
  case object Memory extends Tier
  /** Spilled to a disk-only local checkpoint in Spark's block manager
    * (the disk analog).
    */
  case object Disk extends Tier
}

/** Counters exposed by the storage service. */
final case class StorageStats(
    puts: Long,
    gets: Long,
    localGets: Long,
    remoteGets: Long,
    spills: Long,
    spilledBytes: Long,
    memBytes: Long,
    peakMemBytes: Long,
)

/** Intermediate-result storage service (paper §V-C).
  *
  * Holds the chunks produced by all operators, keyed by a unique id.
  * Every worker reads and writes via `put`/`get` without knowing where
  * the data actually lives. Both tiers are Spark's block manager: the
  * memory tier is the Dataset cache, the disk tier a disk-only local
  * checkpoint. When the memory tier exceeds its budget,
  * least-recently-used chunks are spilled.
  *
  * Bands are tracked per chunk so the engine can attribute remote
  * (cross-band) reads — the simulated network-transfer statistic that
  * the locality-aware scheduler minimizes.
  */
final class StorageService(memoryBudget: Long) {
  import StorageService.Filled

  private final class Entry(
      val key: String,
      var df: DataFrame,
      val meta: ChunkMeta,
      var tier: Tier,
      var band: Int,
      var lastUse: Long,
  )

  private val entries = mutable.LinkedHashMap[String, Entry]()
  private var tick = 0L
  private var memBytes = 0L
  private var peakMem = 0L
  private var putsN, getsN, localN, remoteN, spillsN, spilledB = 0L

  /** Materialize `df` as chunk `key` on `band`; returns observed metadata.
    * The chunk is stored as one partition, which also covers plans built
    * from RDDs, and materializing it is one Spark job.
    */
  def put(key: String, df: DataFrame, band: Int): ChunkMeta = {
    require(!contains(key), s"chunk $key already stored")
    putRegister(key, putFill(df), band)
  }

  /** The Spark half of a put: fill the chunk's cache in one Spark job,
    * outside the service's lock, so that several bands can fill chunks at
    * once. Nothing is registered: `putRegister` stores the chunk, or the
    * caller unpersists `Filled.df` to drop it.
    */
  def putFill(df: DataFrame): Filled = {
    val persisted = df.coalesce(1).persist(SparkLevel.MEMORY_AND_DISK)
    // Count in the job that fills the cache. `persisted.count()` would plan
    // a second Dataset over the full lineage, with an extra exchange job
    // when that plan misses the cache.
    try {
      val rdd = persisted.queryExecution.toRdd
      val rows = rdd.sparkContext.runJob(rdd, StorageService.countRows, rdd.partitions.indices).sum
      Filled(persisted, ChunkMeta(rows, rows * SchemaBytes.rowWidth(df.schema)))
    } catch {
      case e: Throwable => persisted.unpersist(false); throw e
    }
  }

  /** The bookkeeping half of a put: register a filled chunk as `key` on
    * `band` in the memory tier, then spill least-recently-used chunks
    * while the tier is over budget.
    */
  def putRegister(key: String, filled: Filled, band: Int): ChunkMeta = synchronized {
    require(!entries.contains(key), s"chunk $key already stored")
    val meta = filled.meta
    tick += 1
    entries(key) = new Entry(key, filled.df, meta, Tier.Memory, band, tick)
    memBytes += meta.bytes
    peakMem = math.max(peakMem, memBytes)
    putsN += 1
    evictIfNeeded(exclude = key)
    meta
  }

  /** Read chunk `key` from the requesting band; counts a remote read if
    * the chunk lives on a different band.
    */
  def get(key: String, requesterBand: Int): DataFrame = synchronized {
    recordGet(key, requesterBand)
    read(key)
  }

  /** Chunk `key` as it is stored now, without counting a read. */
  def read(key: String): DataFrame = synchronized(entry(key).df)

  /** Count a read of chunk `key` from a band, and make it the most
    * recently used chunk, as `get` does.
    */
  def recordGet(key: String, requesterBand: Int): Unit = synchronized {
    val e = entry(key)
    tick += 1; e.lastUse = tick; getsN += 1
    if (e.band == requesterBand) localN += 1 else remoteN += 1
  }

  private def entry(key: String): Entry =
    entries.getOrElse(key, throw new NoSuchElementException(s"chunk $key not stored"))

  def contains(key: String): Boolean = synchronized(entries.contains(key))
  def meta(key: String): Option[ChunkMeta] = synchronized(entries.get(key).map(_.meta))
  def bandOf(key: String): Option[Int] = synchronized(entries.get(key).map(_.band))
  def tierOf(key: String): Option[Tier] = synchronized(entries.get(key).map(_.tier))

  /** Drop a chunk from all tiers. */
  def free(key: String): Unit = synchronized {
    entries.remove(key).foreach { e =>
      release(e, blocking = false)
      if (e.tier == Tier.Memory) memBytes -= e.meta.bytes
    }
  }

  /** Spill LRU memory-tier chunks until under budget. A spill is one
    * Spark job: it reads the chunk's cache and writes its one partition
    * as a local disk block. The checkpoint's plan is a lineage-free scan
    * of that block, which `get` returns as is.
    */
  private def evictIfNeeded(exclude: String): Unit = {
    while (memBytes > memoryBudget && entries.values.exists(e => e.tier == Tier.Memory && e.key != exclude)) {
      val victim = entries.values.filter(e => e.tier == Tier.Memory && e.key != exclude).minBy(_.lastUse)
      // The scan reports the partitioning of the chunk's top-level plan,
      // which is unknown when Spark planned it adaptively (any chunk built
      // over an exchange or a cached join). Coalescing one partition runs
      // in the reading task and keeps the chunk `SinglePartition`.
      val onDisk = victim.df.localCheckpoint(eager = true, SparkLevel.DISK_ONLY).coalesce(1)
      victim.df.unpersist(false)
      victim.df = onDisk
      victim.tier = Tier.Disk
      memBytes -= victim.meta.bytes
      spillsN += 1
      spilledB += victim.meta.bytes
    }
  }

  def stats: StorageStats = synchronized(
    StorageStats(putsN, getsN, localN, remoteN, spillsN, spilledB, memBytes, peakMem)
  )

  /** Release every chunk's blocks in both tiers. Blocking, so the next
    * engine's measurements don't race a background eviction storm.
    */
  def reset(): Unit = synchronized {
    entries.values.foreach(release(_, blocking = true))
    entries.clear()
    memBytes = 0
  }

  /** Drop a chunk's blocks: its cache, or its checkpoint's RDD. */
  private def release(e: Entry, blocking: Boolean): Unit = e.tier match {
    case Tier.Memory => e.df.unpersist(blocking)
    case Tier.Disk   => e.df.queryExecution.logical.collect { case r: LogicalRDD => r.rdd.unpersist(blocking) }
  }
}

object StorageService {

  /** A chunk whose cache `putFill` filled: its persisted Dataset and the
    * metadata observed while filling it.
    */
  final case class Filled(df: DataFrame, meta: ChunkMeta)

  /** Rows of one partition. Spark's closure cleaner parses the class file
    * that declares a job's closure on every job it submits; this small
    * object is cheap to parse, where `RDD.count` makes it parse `RDD` and
    * `SparkContext`, both about 200 KB.
    */
  val countRows: (TaskContext, Iterator[Any]) => Long = (_, rows) => {
    var n = 0L
    while (rows.hasNext) { rows.next(); n += 1 }
    n
  }
}
