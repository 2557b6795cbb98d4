package repro.core

/** Engine configuration.
  *
  * The flags mirror the paper's ablation axes (§VI-D) and the planning
  * differences between Xorbits and the baseline frameworks:
  *
  *  - `dynamicTiling = false` reproduces static (graph-construction-time)
  *    partitioning: fixed reducer counts derived from initial source
  *    sizes, no broadcast detection, no iterative tiling (iloc fails) —
  *    the Dask/Modin planning model and the "dy off" ablation arm;
  *  - `graphFusion = false` materializes every chunk task through the
  *    storage service (no subtask fusion) — the "g off" arm.
  *
  * Operator-level fusion has no flag: Catalyst collapses and compiles the
  * narrow operators of a subtask's composed plan (see
  * `TileableOp.NarrowOp`). The "o off" arm is Spark's
  * `spark.sql.codegen.wholeStage = false`.
  */
final case class EngineConfig(
    /** Upper bound for one chunk's estimated bytes (paper's chunk size limit). */
    chunkSizeLimit: Long = 8L << 20,
    dynamicTiling: Boolean = true,
    graphFusion: Boolean = true,
    /** Aggregated-size threshold below which tree-reduce is selected. */
    treeReduceThreshold: Long = 8L << 20,
    /** Side-size threshold below which a merge side is broadcast. */
    broadcastThreshold: Long = 4L << 20,
    /** Fixed reducer count used when dynamicTiling = false. */
    staticReducers: Int = 8,
    /** Memory-tier budget of the storage service before spilling to disk. */
    memoryBudget: Long = 1L << 30,
)
