package org.apache.spark.sql

import org.apache.spark.rdd.{PartitionCoalescer, PartitionGroup, RDD}
import org.apache.spark.sql.catalyst.plans.logical.Statistics
import org.apache.spark.sql.catalyst.plans.physical.SinglePartition
import org.apache.spark.sql.classic.ClassicConversions._
import org.apache.spark.sql.columnar.CachedBatch
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.execution.columnar.{CachedRDDBuilder, InMemoryRelation}
import org.apache.spark.storage.StorageLevel

/** Rows held in Spark's columnar cache, read through a lineage-free leaf.
  *
  * `df` is one partition, and its plan is a single `LogicalRDD` over the
  * cached batches in partition order, which declares `SinglePartition` and
  * carries the cache's size. Plans built on it do not embed the plan that
  * filled the cache, so they do not grow with the number of stored chunks
  * behind it. The cache is not registered with Spark's `CacheManager`:
  * only this leaf reads it.
  *
  * Every `private[sql]` API the engine uses is confined to this file.
  */
final class CachedLeaf private (val df: DataFrame, val rows: Long, builder: CachedRDDBuilder, owned: Boolean) {

  /** Drop the cache's blocks, if this leaf filled the cache. A leaf over
    * a cache the caller made leaves it as it is.
    */
  def release(blocking: Boolean): Unit = if (owned) builder.clearCache(blocking)
}

object CachedLeaf {

  /** Cache the one-partition chunk `df` as `name` and return its leaf.
    * Filling the cache is one Spark job, which also counts the rows.
    */
  def fill(df: DataFrame, name: String): CachedLeaf =
    leaf(df, InMemoryRelation(StorageLevel.MEMORY_AND_DISK, df.coalesce(1).queryExecution, Some(name)), owned = true)

  /** The leaf of a source: over the cache Spark already holds for `df`
    * when the caller cached it, else over a cache of its own, named `name`
    * and filled in one parallel job. Its one partition is the source's
    * partitions in order.
    */
  def source(df: DataFrame, name: String): CachedLeaf = {
    val ds = castToImpl(df)
    ds.sparkSession.sharedState.cacheManager.lookupCachedData(ds) match {
      case Some(cached) => leaf(df, cached.cachedRepresentation, owned = false)
      case None         => leaf(df, InMemoryRelation(StorageLevel.MEMORY_AND_DISK, ds.queryExecution, Some(name)), owned = true)
    }
  }

  /** Fill (or read) `relation`'s cache in one job that counts its rows,
    * and return the leaf over it. The leaf has `df`'s own columns, as fresh
    * attributes: a cache found by plan equality may have been made under
    * other column names.
    */
  private def leaf(df: DataFrame, relation: InMemoryRelation, owned: Boolean): CachedLeaf = {
    val builder = relation.cacheBuilder
    val buffers = builder.cachedColumnBuffers
    val rows =
      try buffers.sparkContext.runJob(buffers, numRows).sum
      catch { case e: Throwable => if (owned) builder.clearCache(false); throw e }
    val session = castToImpl(df.sparkSession)
    val batches = builder.serializer.convertCachedBatchToInternalRow(
      buffers, relation.output, relation.output, session.sessionState.conf)
    val one = if (batches.getNumPartitions == 1) batches else batches.coalesce(1, shuffle = false, Some(InOrder))
    val stats = Statistics(sizeInBytes = BigInt(builder.sizeInBytesStats.value), rowCount = Some(BigInt(rows)))
    val output = df.queryExecution.analyzed.output.map(_.newInstance())
    val plan = LogicalRDD(output, one, SinglePartition)(session, Some(stats))
    new CachedLeaf(classic.Dataset.ofRows(session, plan), rows, builder, owned)
  }

  /** Rows of one partition's cached batches. Spark's closure cleaner
    * parses the class file that declares a job's closure on every job it
    * submits, and this object's is small.
    */
  private val numRows: Iterator[CachedBatch] => Long = batches => {
    var n = 0L
    while (batches.hasNext) n += batches.next().numRows
    n
  }

  /** Coalesces an RDD's partitions into one, in partition order. Spark's
    * default coalescer puts first the partitions that have a preferred
    * location (a cached block, or a parent's), so it reorders a source that
    * is cached in part. The scheduler's view of those locations also
    * changes as other jobs start, so two chunks of one source could cut
    * their row ranges out of two different orders.
    */
  private object InOrder extends PartitionCoalescer with Serializable {
    def coalesce(maxPartitions: Int, parent: RDD[_]): Array[PartitionGroup] = {
      val group = new PartitionGroup()
      group.partitions ++= parent.partitions
      Array(group)
    }
  }
}
