package repro.storage

import java.nio.file.{Files, Path}
import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.{StorageLevel => SparkLevel}

import repro.core.{ChunkMeta, SchemaBytes}

/** Storage tier of a chunk (paper §V-C StorageLevel). */
sealed trait Tier
object Tier {
  /** In-memory (Spark cache, the shared-memory analog). */
  case object Memory extends Tier
  /** Spilled to local parquet (the disk analog). */
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
  * the data actually lives — here, either the Spark block-manager cache
  * (memory tier) or local parquet files (disk tier). When the memory
  * tier exceeds its budget, least-recently-used chunks are spilled.
  *
  * Bands are tracked per chunk so the engine can attribute remote
  * (cross-band) reads — the simulated network-transfer statistic that
  * the locality-aware scheduler minimizes.
  */
final class StorageService(spark: SparkSession, memoryBudget: Long) {

  private final class Entry(
      val key: String,
      var df: DataFrame,
      val meta: ChunkMeta,
      var tier: Tier,
      var band: Int,
      var path: Option[Path],
      var lastUse: Long,
  )

  private val entries = mutable.LinkedHashMap[String, Entry]()
  private val spillDir: Path = Files.createTempDirectory("repro-spill-")
  private var tick = 0L
  private var memBytes = 0L
  private var peakMem = 0L
  private var putsN, getsN, localN, remoteN, spillsN, spilledB = 0L

  /** Materialize `df` as chunk `key` on `band`; returns observed metadata.
    * The chunk is stored as one partition, which also covers plans built
    * from RDDs, and materializing it is one Spark job.
    */
  def put(key: String, df: DataFrame, band: Int): ChunkMeta = synchronized {
    require(!entries.contains(key), s"chunk $key already stored")
    val persisted = df.coalesce(1).persist(SparkLevel.MEMORY_AND_DISK)
    // Count in the job that fills the cache. `persisted.count()` would plan
    // a second Dataset over the full lineage, with an extra exchange job
    // when that plan misses the cache.
    val rows = persisted.queryExecution.toRdd.count()
    val meta = ChunkMeta(rows, rows * SchemaBytes.rowWidth(df.schema))
    tick += 1
    entries(key) = new Entry(key, persisted, meta, Tier.Memory, band, None, tick)
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
    val e = entries.getOrElse(key, throw new NoSuchElementException(s"chunk $key not stored"))
    tick += 1; e.lastUse = tick; getsN += 1
    if (e.band == requesterBand) localN += 1 else remoteN += 1
    e.tier match {
      case Tier.Memory => e.df
      // A parquet read reports unknown partitioning, over which Spark would
      // plan a shuffle: keep the chunk one partition, and say so.
      case Tier.Disk   => spark.read.parquet(e.path.get.toString).coalesce(1)
    }
  }

  def contains(key: String): Boolean = synchronized(entries.contains(key))
  def meta(key: String): Option[ChunkMeta] = synchronized(entries.get(key).map(_.meta))
  def bandOf(key: String): Option[Int] = synchronized(entries.get(key).map(_.band))
  def tierOf(key: String): Option[Tier] = synchronized(entries.get(key).map(_.tier))

  /** Drop a chunk from all tiers. */
  def free(key: String): Unit = synchronized {
    entries.remove(key).foreach { e =>
      if (e.tier == Tier.Memory) { e.df.unpersist(false); memBytes -= e.meta.bytes }
      e.path.foreach(deleteRecursively)
    }
  }

  /** Spill LRU memory-tier chunks until under budget. */
  private def evictIfNeeded(exclude: String): Unit = {
    while (memBytes > memoryBudget && entries.values.exists(e => e.tier == Tier.Memory && e.key != exclude)) {
      val victim = entries.values.filter(e => e.tier == Tier.Memory && e.key != exclude).minBy(_.lastUse)
      val p = spillDir.resolve(victim.key)
      victim.df.write.mode("overwrite").parquet(p.toString)
      victim.df.unpersist(false)
      victim.tier = Tier.Disk
      victim.path = Some(p)
      memBytes -= victim.meta.bytes
      spillsN += 1
      spilledB += victim.meta.bytes
    }
  }

  def stats: StorageStats = synchronized(
    StorageStats(putsN, getsN, localN, remoteN, spillsN, spilledB, memBytes, peakMem)
  )

  /** Unpersist everything and delete spill files. Blocking, so the next
    * engine's measurements don't race a background eviction storm.
    */
  def reset(): Unit = synchronized {
    entries.values.foreach { e =>
      if (e.tier == Tier.Memory) e.df.unpersist(true)
      e.path.foreach(deleteRecursively)
    }
    entries.clear()
    memBytes = 0
  }

  private def deleteRecursively(p: Path): Unit = {
    if (Files.isDirectory(p)) {
      val s = Files.list(p)
      try s.forEach(deleteRecursively(_)) finally s.close()
    }
    Files.deleteIfExists(p)
    ()
  }
}
