package repro.baseline

import org.apache.spark.sql.SparkSession

import repro.core.{Engine, EngineConfig}

/** Named engine configurations: the full Xorbits-style engine plus the
  * baseline planning models and the ablation arms (paper §VI-B/D).
  *
  * All variants share the same chunk-task machinery — only planning
  * differs — so timing comparisons isolate the paper's contributions:
  * dynamic tiling and graph-level fusion. Operator-level fusion is
  * Catalyst's, on every variant (see `TileableOp.NarrowOp`); its ablation
  * arm is a Spark setting, not an engine variant.
  */
object Engines {

  /** Full engine (dynamic tiling + graph fusion). */
  def xorbits(spark: SparkSession, chunkLimit: Long = 8L << 20): Engine =
    new Engine(spark, EngineConfig(chunkSizeLimit = chunkLimit,
      treeReduceThreshold = chunkLimit, broadcastThreshold = chunkLimit / 2))

  /** Static planner (Dask/Modin-like): partitioning fixed at graph
    * construction from initial source sizes; always hash-shuffle with a
    * fixed reducer count; no broadcast detection; iloc unsupported. Also
    * the "dy off" ablation arm (dynamic tiling disabled, fusion kept).
    */
  def static(spark: SparkSession, chunkLimit: Long = 8L << 20, reducers: Int = 8): Engine =
    new Engine(spark, EngineConfig(chunkSizeLimit = chunkLimit,
      treeReduceThreshold = chunkLimit, broadcastThreshold = chunkLimit / 2,
      dynamicTiling = false, staticReducers = reducers))

  /** Single-chunk engine (pandas-like): no partitioning at all. */
  def singleNode(spark: SparkSession): Engine =
    new Engine(spark, EngineConfig(chunkSizeLimit = Long.MaxValue / 4))

  /** Ablation arm: graph-level fusion disabled. */
  def noGraphFusion(spark: SparkSession, chunkLimit: Long = 8L << 20): Engine =
    new Engine(spark, EngineConfig(chunkSizeLimit = chunkLimit,
      treeReduceThreshold = chunkLimit, broadcastThreshold = chunkLimit / 2,
      graphFusion = false))
}
