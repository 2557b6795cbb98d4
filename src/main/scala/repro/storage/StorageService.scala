package repro.storage

import scala.collection.mutable

import org.apache.spark.sql.{CachedLeaf, DataFrame}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.types.StructType
import org.apache.spark.storage.{StorageLevel => SparkLevel}

import repro.core.{ChunkMeta, SchemaBytes}

/** Storage tier of a chunk (paper §V-C StorageLevel). Either way the
  * stored chunk is a lineage-free leaf over blocks in Spark's block
  * manager, one partition.
  */
sealed trait Tier
object Tier {
  /** In memory: Spark's columnar cache, filled without registering it
    * with Spark's cache manager (the shared-memory analog).
    */
  case object Memory extends Tier
  /** Spilled to a disk-only local checkpoint of the memory leaf (the disk
    * analog).
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
  * Every worker writes via `putFill`/`putRegister` and reads via `get`
  * without knowing where the data actually lives or how it was made: a
  * stored chunk is a leaf over its blocks (`CachedLeaf`), so plans built
  * on it do not carry its lineage. Both tiers are Spark's block manager:
  * the memory tier is a columnar cache named after the chunk's key, the
  * disk tier a disk-only local checkpoint. When the memory tier exceeds
  * its budget, least-recently-used chunks are spilled.
  *
  * A put whose plan is deterministic and has the same result and schema
  * (column names included) as a stored chunk's shares that chunk: the new
  * key points to it, no job runs and no bytes are added. A shared chunk
  * has one tier and one LRU clock, and is released when its last key is
  * freed. Only registered chunks are shared, so what is shared does not
  * depend on which band fills first.
  *
  * Bands are tracked per chunk so the engine can attribute remote
  * (cross-band) reads — the simulated network-transfer statistic that
  * the locality-aware scheduler minimizes.
  */
final class StorageService(memoryBudget: Long) {
  import StorageService.{Chunk, Filled}

  private val entries = mutable.LinkedHashMap[String, Chunk]()
  /** Registered chunks with a deterministic plan, by its semantic hash. */
  private val byPlan = mutable.HashMap[Int, List[Chunk]]()
  private var tick = 0L
  private var memBytes = 0L
  private var peakMem = 0L
  private var putsN, getsN, localN, remoteN, spillsN, spilledB = 0L

  /** The Spark half of a put of `df` as `key`: share a registered chunk
    * with the same result, or fill a cache named `key` in one Spark job.
    * The chunk is stored as one partition, which also covers plans built
    * from RDDs. Runs outside the service's lock, so that several bands can
    * fill chunks at once. Nothing is registered: `putRegister` stores the
    * chunk, or `discard` drops it.
    */
  def putFill(key: String, df: DataFrame): Filled = {
    val plan = df.queryExecution.analyzed
    // Canonicalizing the plan is the costly part of the lookup.
    val hash = Option.when(plan.deterministic)(plan.semanticHash())
    val same = hash.flatMap(h => synchronized(byPlan.getOrElse(h, Nil))
      .find(c => c.schema == df.schema && c.plan.sameResult(plan)))
    same match {
      case Some(c) => new Filled(c, shared = true)
      case None =>
        val leaf = CachedLeaf.fill(df, key)
        val meta = ChunkMeta(leaf.rows, leaf.rows * SchemaBytes.rowWidth(df.schema))
        new Filled(new Chunk(plan, hash, df.schema, leaf, meta), shared = false)
    }
  }

  /** The bookkeeping half of a put: register a filled chunk as `key` on
    * `band` in the memory tier, then spill least-recently-used chunks
    * while the tier is over budget. A shared chunk stays where it is.
    */
  def putRegister(key: String, filled: Filled, band: Int): ChunkMeta = synchronized {
    require(!entries.contains(key), s"chunk $key already stored")
    val c = filled.chunk
    if (filled.shared) require(c.keys > 0, s"chunk $key shares a chunk that was freed")
    else {
      c.band = band
      memBytes += c.meta.bytes
      peakMem = math.max(peakMem, memBytes)
      c.hash.foreach(h => byPlan(h) = c :: byPlan.getOrElse(h, Nil))
    }
    c.keys += 1
    tick += 1
    c.lastUse = tick
    entries(key) = c
    putsN += 1
    evictIfNeeded(exclude = c)
    c.meta
  }

  /** Drop a filled chunk that was not registered. A shared chunk is
    * another key's, and stays.
    */
  def discard(filled: Filled): Unit = if (!filled.shared) filled.chunk.leaf.release(blocking = false)

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
    val c = entry(key)
    tick += 1; c.lastUse = tick; getsN += 1
    if (c.band == requesterBand) localN += 1 else remoteN += 1
  }

  private def entry(key: String): Chunk =
    entries.getOrElse(key, throw new NoSuchElementException(s"chunk $key not stored"))

  def contains(key: String): Boolean = synchronized(entries.contains(key))
  def meta(key: String): Option[ChunkMeta] = synchronized(entries.get(key).map(_.meta))
  def bandOf(key: String): Option[Int] = synchronized(entries.get(key).map(_.band))
  /** The tier chunk `key` is in. No engine path needs it; it stays as the
    * only way to see which tier one chunk is in, which the spill tests
    * check.
    */
  def tierOf(key: String): Option[Tier] = synchronized(entries.get(key).map(_.tier))

  /** Drop key `key`, and its chunk from all tiers if no other key shares
    * it.
    */
  def free(key: String): Unit = synchronized {
    entries.remove(key).foreach { c =>
      c.keys -= 1
      if (c.keys == 0) {
        release(c, blocking = false)
        if (c.tier == Tier.Memory) memBytes -= c.meta.bytes
        c.hash.foreach { h =>
          val rest = byPlan(h).filterNot(_ eq c)
          if (rest.isEmpty) byPlan -= h else byPlan(h) = rest
        }
      }
    }
  }

  /** Spill LRU memory-tier chunks until under budget. A spill is one
    * Spark job: it reads the chunk's cache and writes its one partition
    * as a local disk block. The checkpoint's plan is a lineage-free scan
    * of that block that keeps the leaf's `SinglePartition`, and `get`
    * returns it as is.
    */
  private def evictIfNeeded(exclude: Chunk): Unit = {
    def inMemory = entries.valuesIterator.filter(c => c.tier == Tier.Memory && (c ne exclude))
    while (memBytes > memoryBudget && inMemory.hasNext) {
      val victim = inMemory.minBy(_.lastUse)
      victim.df = victim.df.localCheckpoint(eager = true, SparkLevel.DISK_ONLY)
      victim.leaf.release(blocking = false)
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
    entries.valuesIterator.distinct.foreach(release(_, blocking = true))
    entries.clear()
    byPlan.clear()
    memBytes = 0
  }

  /** Drop a chunk's blocks: its cache, or its checkpoint's RDD. */
  private def release(c: Chunk, blocking: Boolean): Unit = c.tier match {
    case Tier.Memory => c.leaf.release(blocking)
    case Tier.Disk   => c.df.queryExecution.logical.collect { case r: LogicalRDD => r.rdd.unpersist(blocking) }
  }
}

object StorageService {

  /** A stored chunk, under one key or several. `plan` and `schema` are
    * those of the put that filled it, which later puts are matched
    * against; `df` is its leaf in the tier it is in.
    */
  private[storage] final class Chunk(
      val plan: LogicalPlan,
      val hash: Option[Int],
      val schema: StructType,
      val leaf: CachedLeaf,
      val meta: ChunkMeta,
  ) {
    var df: DataFrame = leaf.df
    var tier: Tier = Tier.Memory
    var band = 0
    var lastUse = 0L
    var keys = 0
  }

  /** The result of `putFill`, not yet registered: a chunk whose cache was
    * just filled, or a registered chunk with the same result.
    */
  final class Filled private[storage] (private[storage] val chunk: Chunk, private[storage] val shared: Boolean) {
    /** The chunk's leaf, which the put's consumers read. */
    def df: DataFrame = chunk.df
    /** The metadata observed while filling the chunk. */
    def meta: ChunkMeta = chunk.meta
  }
}
