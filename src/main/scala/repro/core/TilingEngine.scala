package repro.core

import java.util.concurrent.{ExecutorService, LinkedBlockingQueue, ThreadFactory, ThreadPoolExecutor, TimeUnit}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicLong}
import scala.annotation.tailrec
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{classic, DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import org.apache.spark.storage.{StorageLevel => SparkLevel}

import repro.fusion.{Dag, Subtask, SubtaskGraph}
import repro.sched.Scheduler
import repro.storage.StorageService

/** Result of tiling one tileable operator (the paper's `tile` method).
  *
  * `NeedExec` is the Scala rendering of the paper's `yield` (§IV-B,
  * Fig 5): tiling pauses, hands the engine the chunk tasks whose
  * metadata it needs, and resumes — possibly yielding again — once they
  * have been executed and their metadata recorded in the meta service.
  */
sealed trait TileResult
object TileResult {
  final case class Tiled(chunks: Vector[ChunkTask]) extends TileResult
  final case class NeedExec(targets: Vector[ChunkTask], resume: () => TileResult) extends TileResult
}

/** Raised at tile time when `iloc` or `head` must cut rows out of a chunk
  * that carries no row ids, so that positions within it are undefined.
  */
final class UnorderedLineageException(message: String) extends IllegalArgumentException(message)

/** The Xorbits-style execution engine: dynamic tiling, graph/operator
  * fusion, band scheduling, and an intermediate storage service — layered
  * over a single SparkSession whose Catalyst engine plays the role of the
  * single-node backend (pandas in the paper).
  *
  * Every chunk is exactly one Spark partition. A chunk is the unit one
  * single-node call processes on one band (§III-C, §V-B); parallelism
  * comes from running many chunks, not from splitting one. Spark's
  * `SinglePartition` satisfies the distribution every aggregate, window
  * and sort requires, so over one-partition inputs Spark plans no shuffle
  * inside a chunk, whatever `spark.sql.shuffle.partitions` says. Source
  * slices, `Engine.concat`, `StorageService.put` and disk-tier spills
  * coalesce (without a shuffle) to one partition: the places where more
  * partitions, or an unknown partitioning, can appear. Joins take the same
  * care (see `tileMerge`).
  */
final class Engine(val spark: SparkSession, val config: EngineConfig) {
  import Engine.{concat, Access, Fill, Read, SubtaskRun}
  import TileResult._
  import TileableOp._

  val storage = new StorageService(config.memoryBudget)
  val scheduler = new Scheduler(config.workers, config.bandsPerWorker)
  val stats = new EngineStats

  private val idGen = new AtomicLong(0)
  private val tiledCache = new java.util.IdentityHashMap[Tileable, Vector[ChunkTask]]()
  private val materialized = mutable.Set[Long]()
  private val sourceCache = mutable.LinkedHashMap[String, (DataFrame, Long)]()

  // ---------------------------------------------------------------------
  // Task construction
  // ---------------------------------------------------------------------

  private def task(
      label: String,
      stage: Stage,
      index: (Int, Int),
      inputs: Vector[ChunkTask],
      compute: Seq[DataFrame] => DataFrame,
      narrow: Option[NarrowPipe] = None,
  ): ChunkTask = new ChunkTask(idGen.incrementAndGet(), label, stage, index, inputs, compute, narrow)

  private def keyOf(t: ChunkTask): String = s"c${t.id}"

  /** Metadata of a materialized task's chunk, if available (meta service). */
  def metaOf(t: ChunkTask): Option[ChunkMeta] = storage.meta(keyOf(t))

  def isMaterialized(t: ChunkTask): Boolean = materialized.contains(t.id)

  // ---------------------------------------------------------------------
  // Tiling (graph construction), with dynamic switches to execution
  // ---------------------------------------------------------------------

  /** Tile a tileable node into its output chunk tasks, running the
    * dynamic tiling loop: whenever the operator's `tile` yields
    * `NeedExec`, the engine executes those chunks, records their
    * metadata, and resumes tiling.
    */
  def tile(t: Tileable): Vector[ChunkTask] = {
    val cached = tiledCache.get(t)
    if (cached != null) return cached
    val chunks = resolve(tileOp(t.op, t.inputs.map(tile)))
    tiledCache.put(t, chunks)
    chunks
  }

  /** Run a tiling step to completion: execute each `NeedExec`'s pending
    * targets, then resume, until the operator returns its chunks.
    */
  @tailrec private def resolve(step: TileResult): Vector[ChunkTask] = step match {
    case Tiled(chunks) => chunks
    case NeedExec(targets, resume) =>
      val pending = targets.filterNot(isMaterialized)
      if (pending.nonEmpty) {
        stats.tileExecSwitches += 1
        execute(pending)
      }
      resolve(resume())
  }

  private def tileOp(op: TileableOp, ins: Vector[Vector[ChunkTask]]): TileResult = op match {
    case s: SourceOp   => tileSource(s)
    case n: NarrowOp   => tileNarrow(n, ins.head)
    case g: GroupAggOp => tileGroupAgg(g, ins.head)
    case m: MergeOp    => tileMerge(m, ins(0), ins(1))
    case i: ILocOp     => tileILoc(i, ins.head)
    case h: HeadOp     => tileILoc(ILocOp(0, h.nRows), ins.head)
    case s: SortOp     => tileSort(s, ins.head)
    case d: DistinctOp => tileDistinct(d, ins.head)
    case _: ConcatOp   => Tiled(reindexChunks(ins.flatten))
    case p: PivotOp    => tilePivot(p, ins.head)
  }

  /** Renumber the chunk row-index (r) of a concatenated chunk list. */
  private def reindexChunks(chunks: Vector[ChunkTask]): Vector[ChunkTask] =
    chunks.zipWithIndex.map { case (c, r) =>
      task(s"Concat[$r]", Stage.Other, (r, 0), Vector(c), dfs => dfs.head)
    }

  // -- Source ------------------------------------------------------------

  private def tileSource(s: SourceOp): TileResult = {
    val (indexed, rows) = sourceCache.getOrElseUpdate(s.sourceName, {
      val schema = s.df.schema.add(Cols.RowId, LongType, nullable = false)
      val rdd = s.df.rdd.zipWithIndex().map { case (r, i) => Row.fromSeq(r.toSeq :+ i) }
      val ind = spark.createDataFrame(rdd, schema).persist(SparkLevel.MEMORY_AND_DISK)
      // Counted as `StorageService.putFill` counts: one job, no exchange.
      val rows = ind.queryExecution.toRdd
      (ind, spark.sparkContext.runJob(rows, StorageService.countRows, rows.partitions.indices).sum)
    })
    val bytes = rows * SchemaBytes.rowWidth(s.df.schema)
    val nChunks = math.max(1L, (bytes + config.chunkSizeLimit - 1) / config.chunkSizeLimit).toInt
    val per = math.max(1L, (rows + nChunks - 1) / nChunks)
    val chunks = (0 until nChunks).toVector.flatMap { r =>
      val lo = r * per; val hi = math.min(rows, lo + per)
      if (lo >= hi && r > 0) None
      else Some(task(s"Read(${s.sourceName})[$r]", Stage.Source, (r, 0), Vector.empty,
        _ => indexed.filter(col(Cols.RowId) >= lo && col(Cols.RowId) < hi).coalesce(1)))
    }
    Tiled(chunks)
  }

  // -- Narrow ------------------------------------------------------------

  private def tileNarrow(nop: NarrowOp, ins: Vector[ChunkTask]): TileResult =
    Tiled(ins.zipWithIndex.map { case (c, r) =>
      task(s"${nop.label}[$r]", Stage.Narrow, (r, 0), Vector(c),
        dfs => nop.pipe(dfs.head, fused = config.operatorFusion),
        narrow = Some(nop.pipe))
    })

  // -- GroupbyAgg: map → (combine)* → reduce, auto reduce selection ------

  private def tileGroupAgg(g: GroupAggOp, ins: Vector[ChunkTask]): TileResult = {
    val keys = g.keys

    val mapTasks = ins.zipWithIndex.map { case (c, r) =>
      task(s"GroupbyAgg::map[$r]", Stage.Map, (r, 0), Vector(c), dfs => {
        val exprs = AggSpec.mapExprs(g.aggs)
        dfs.head.drop(Cols.RowId).groupBy(keys.map(col): _*).agg(exprs.head, exprs.tail: _*)
      })
    }

    def finalize(df: DataFrame): DataFrame = df.select(AggSpec.finalExprs(keys, g.aggs): _*)
    def mergeAgg(dfs: Seq[DataFrame]): DataFrame = {
      val exprs = AggSpec.mergeExprs(g.aggs)
      concat(dfs).groupBy(keys.map(col): _*).agg(exprs.head, exprs.tail: _*)
    }

    def treeReduce(): Vector[ChunkTask] = {
      stats.treeReduces += 1
      var level = mapTasks
      var depth = 0
      // Auto merge (§IV-C): concatenate map outputs up to the fan-in
      // limit per combine node until one chunk remains.
      while (level.size > 1) {
        depth += 1
        val fanIn = if (config.combineStage) Engine.CombineFanIn else level.size
        level = level.grouped(fanIn).toVector.zipWithIndex.map { case (grp, r) =>
          if (grp.size == 1) grp.head
          else task(s"GroupbyAgg::combine$depth[$r]", Stage.Combine, (r, 0), grp, mergeAgg)
        }
      }
      Vector(task("GroupbyAgg::agg[0]", Stage.Reduce, (0, 0), level, dfs => finalize(
        if (level.head.stage == Stage.Map) mergeAgg(dfs) else dfs.head)))
    }

    def shuffleReduce(nReducers: Int): Vector[ChunkTask] = {
      stats.shuffleReduces += 1
      val r = math.max(2, nReducers)
      val buckets = mapTasks.map { m =>
        (0 until r).toVector.map { b =>
          task(s"GroupbyAgg::bucket[${m.index._1},$b]", Stage.Map, (b, 0), Vector(m),
            dfs => dfs.head.filter(pmod(hash(keys.map(col): _*), lit(r)) === b))
        }
      }
      (0 until r).toVector.map { b =>
        task(s"GroupbyAgg::agg[$b]", Stage.Reduce, (b, 0), buckets.map(_(b)),
          dfs => finalize(mergeAgg(dfs)))
      }
    }

    if (keys.isEmpty) {
      // Global aggregate: nothing to bucket on — always tree-reduce.
      Tiled(treeReduce())
    } else if (!config.dynamicTiling) {
      // Static planning: reducer count fixed from the initial chunk count.
      Tiled(shuffleReduce(math.min(config.staticReducers, math.max(2, ins.size))))
    } else {
      // Dynamic tiling: run the first few map chunks, read their actual
      // aggregated size from the meta service, then pick the reduce plan.
      val sample = mapTasks.take(Engine.SampleChunks)
      NeedExec(sample, () => {
        val metas = sample.flatMap(metaOf)
        val avgBytes = if (metas.isEmpty) 0.0 else metas.map(_.bytes).sum.toDouble / metas.size
        val estTotal = (avgBytes * mapTasks.size).toLong
        if (estTotal <= config.treeReduceThreshold) Tiled(treeReduce())
        else {
          val r = (estTotal / math.max(1L, config.chunkSizeLimit)).toInt + 1
          Tiled(shuffleReduce(math.min(math.max(2, r), 64)))
        }
      })
    }
  }

  // -- Merge: broadcast vs hash-shuffle, auto skew avoidance -------------

  private def tileMerge(m: MergeOp, left: Vector[ChunkTask], right: Vector[ChunkTask]): TileResult = {
    val on = m.on

    def joinCompute(l: DataFrame, r: DataFrame): DataFrame = {
      val lu = l.drop(Cols.RowId); val ru = r.drop(Cols.RowId)
      if (m.how == "cross") return lu.crossJoin(ru)
      val overlap = (lu.columns.toSet intersect ru.columns.toSet) -- on.toSet
      val lr = overlap.foldLeft(lu)((d, c) => d.withColumnRenamed(c, s"${c}_x"))
      val rr = overlap.foldLeft(ru)((d, c) => d.withColumnRenamed(c, s"${c}_y"))
      lr.join(rr, on, m.how)
    }

    // The join hints `broadcast` on the small side: a broadcast hash join
    // puts no distribution on the big chunk. A sort-merge join would need
    // both inputs clustered, and Spark shuffles a one-partition input whose
    // estimated size is large, as that of a join fused into the same
    // subtask is (the product of its inputs' sizes).
    def broadcastMerge(big: Vector[ChunkTask], small: Vector[ChunkTask], smallLeft: Boolean): Vector[ChunkTask] = {
      stats.broadcastMerges += 1
      val concatSmall =
        if (small.size == 1) small.head
        else task("Merge::concatSmall[0]", Stage.Other, (0, 0), small, concat)
      big.zipWithIndex.map { case (b, r) =>
        task(s"Merge::join[$r]", Stage.Reduce, (r, 0), Vector(b, concatSmall), dfs =>
          if (smallLeft) joinCompute(broadcast(dfs(1)), dfs(0))
          else joinCompute(dfs(0), broadcast(dfs(1))))
      }
    }

    def shuffleMerge(nReducers: Int): Vector[ChunkTask] = {
      stats.shuffleMerges += 1
      val r = math.max(2, nReducers)
      def bucketSide(side: Vector[ChunkTask], tag: String) = side.map { c =>
        (0 until r).toVector.map { b =>
          task(s"Merge::bucket$tag[${c.index._1},$b]", Stage.Map, (b, 0), Vector(c),
            dfs => dfs.head.filter(pmod(hash(on.map(col): _*), lit(r)) === b))
        }
      }
      val lb = bucketSide(left, "L"); val rb = bucketSide(right, "R")
      val nl = left.size
      (0 until r).toVector.map { b =>
        val inputsB = lb.map(_(b)) ++ rb.map(_(b))
        task(s"Merge::join[$b]", Stage.Reduce, (b, 0), inputsB, dfs => {
          val l = concat(dfs.take(nl).map(_.drop(Cols.RowId)))
          val rr = concat(dfs.drop(nl).map(_.drop(Cols.RowId)))
          joinCompute(l, rr)
        })
      }
    }

    if (m.how == "cross")
      return Tiled(broadcastMerge(left, right, smallLeft = false))

    if (!config.dynamicTiling) {
      // Static planning: always hash-shuffle, R from initial chunk counts.
      Tiled(shuffleMerge(math.min(config.staticReducers, math.max(2, math.max(left.size, right.size)))))
    } else {
      val sample = left.take(Engine.SampleChunks) ++ right.take(Engine.SampleChunks)
      NeedExec(sample, () => {
        def estSide(side: Vector[ChunkTask]): Long = {
          val ms = side.take(Engine.SampleChunks).flatMap(metaOf)
          if (ms.isEmpty) Long.MaxValue
          else (ms.map(_.bytes).sum.toDouble / ms.size * side.size).toLong
        }
        val el = estSide(left); val er = estSide(right)
        // Broadcasting the LEFT side is only sound for inner joins: for
        // left/leftsemi/leftanti the output must stay partitioned by the
        // left chunks (each right chunk would otherwise see a partial
        // right table and duplicate or drop left rows).
        val canBroadcastLeft = m.how == "inner" && el <= config.broadcastThreshold
        if (er <= config.broadcastThreshold && (er <= el || !canBroadcastLeft)) {
          Tiled(broadcastMerge(left, right, smallLeft = false))
        } else if (canBroadcastLeft) {
          Tiled(broadcastMerge(right, left, smallLeft = true))
        } else {
          val r = ((el + er) / math.max(1L, config.chunkSizeLimit)).toInt + 1
          Tiled(shuffleMerge(math.min(math.max(2, r), 64)))
        }
      })
    }
  }

  // -- ILoc / Head: iterative tiling (paper Fig 3c) ----------------------

  private def tileILoc(i: ILocOp, ins: Vector[ChunkTask]): TileResult = {
    if (!config.dynamicTiling)
      throw new UnsupportedOperationException(
        "iloc/head requires dynamic tiling (static engines cannot position rows)")
    NeedExec(ins, () => {
      val counts = ins.map(t => metaOf(t).map(_.rows).getOrElse(0L))
      val offsets = counts.scanLeft(0L)(_ + _)
      val lo = i.start; val hi = i.start + i.count
      val out = Vector.newBuilder[ChunkTask]
      var r = 0
      ins.indices.foreach { j =>
        val cLo = offsets(j); val cHi = offsets(j + 1)
        val s = math.max(lo, cLo); val e = math.min(hi, cHi)
        if (s < e) {
          val localLo = s - cLo; val localHi = e - cLo
          val idx = r; r += 1
          if (localLo == 0 && localHi == (cHi - cLo)) {
            out += task(s"ILoc::pass[$idx]", Stage.Other, (idx, 0), Vector(ins(j)), dfs => dfs.head)
          } else {
            // Positions within a chunk follow its row ids, which merges,
            // aggregations and other reshuffles drop.
            if (!storage.read(keyOf(ins(j))).columns.contains(Cols.RowId))
              throw new UnorderedLineageException(
                s"iloc needs row order inside chunk ${ins(j).label}, whose lineage lost it " +
                  "(sort_values first after shuffles)")
            out += task(s"ILoc::slice[$idx]", Stage.Other, (idx, 0), Vector(ins(j)), dfs => {
              val w = Window.orderBy(col(Cols.RowId))
              dfs.head.withColumn("__rn", row_number().over(w))
                .filter(col("__rn") > localLo && col("__rn") <= localHi)
                .drop("__rn")
            })
          }
        }
      }
      val chunks = out.result()
      if (chunks.nonEmpty) Tiled(chunks)
      else Tiled(Vector(task("ILoc::empty[0]", Stage.Other, (0, 0), Vector(ins.head),
        dfs => dfs.head.limit(0))))
    })
  }

  // -- Sort: concat → global sort → reindex → resplit --------------------

  private def tileSort(s: SortOp, ins: Vector[ChunkTask]): TileResult = {
    val sortCols = s.by.zip(s.ascending).map { case (c, asc) => if (asc) col(c).asc else col(c).desc }
    val sorted = task("Sort::global[0]", Stage.Reduce, (0, 0), ins, dfs => {
      Reindex.withRowId(concat(dfs.map(_.drop(Cols.RowId))).orderBy(sortCols: _*))
    })
    NeedExec(Vector(sorted), () => {
      val meta = metaOf(sorted).get
      val nChunks = math.max(1L, meta.bytes / math.max(1L, config.chunkSizeLimit) + 1).toInt
      if (nChunks <= 1) Tiled(Vector(sorted))
      else {
        val per = math.max(1L, (meta.rows + nChunks - 1) / nChunks)
        val chunks = (0 until nChunks).toVector.flatMap { r =>
          val lo = r * per; val hi = math.min(meta.rows, lo + per)
          if (lo >= hi) None
          else Some(task(s"Sort::split[$r]", Stage.Other, (r, 0), Vector(sorted),
            dfs => dfs.head.filter(col(Cols.RowId) >= lo && col(Cols.RowId) < hi)))
        }
        Tiled(chunks)
      }
    })
  }

  // -- Distinct ----------------------------------------------------------

  private def tileDistinct(d: DistinctOp, ins: Vector[ChunkTask]): TileResult = {
    def dedup(df: DataFrame): DataFrame = {
      val u = df.drop(Cols.RowId)
      if (d.subset.isEmpty) u.dropDuplicates() else u.dropDuplicates(d.subset)
    }
    // Per-chunk pre-dedup (map), then bucketed global dedup (reduce).
    val mapTasks = ins.zipWithIndex.map { case (c, r) =>
      task(s"Distinct::map[$r]", Stage.Map, (r, 0), Vector(c), dfs => dedup(dfs.head))
    }
    if (mapTasks.size == 1) return Tiled(mapTasks)
    val r = math.max(2, math.min(ins.size, config.staticReducers))
    val buckets = mapTasks.map { mt =>
      (0 until r).toVector.map { b =>
        task(s"Distinct::bucket[${mt.index._1},$b]", Stage.Map, (b, 0), Vector(mt), dfs => {
          val df = dfs.head
          val cols0 = if (d.subset.isEmpty) df.columns.toSeq.filterNot(_ == Cols.RowId) else d.subset
          df.filter(pmod(hash(cols0.map(col): _*), lit(r)) === b)
        })
      }
    }
    Tiled((0 until r).toVector.map { b =>
      task(s"Distinct::agg[$b]", Stage.Reduce, (b, 0), buckets.map(_(b)),
        dfs => dedup(concat(dfs)))
    })
  }

  // -- Pivot: non-relational reshape, single output chunk ----------------

  private def tilePivot(p: PivotOp, ins: Vector[ChunkTask]): TileResult =
    Tiled(Vector(task("Pivot[0]", Stage.Reduce, (0, 0), ins, dfs => {
      val g = concat(dfs.map(_.drop(Cols.RowId))).groupBy(col(p.index)).pivot(p.columns)
      p.aggfunc match {
        case "sum"   => g.sum(p.values)
        case "mean"  => g.avg(p.values)
        case "count" => g.count()
        case "min"   => g.min(p.values)
        case "max"   => g.max(p.values)
        case other   => throw new UnsupportedOperationException(s"pivot aggfunc $other")
      }
    })))

  // ---------------------------------------------------------------------
  // Execution: fuse → schedule → run subtasks → store exposed chunks
  // ---------------------------------------------------------------------

  /** Execute (materialize) the given chunk tasks plus everything they
    * transitively need that is not already in the storage service.
    *
    * The subtasks run in waves: a wave is one dependency level of the
    * subtask graph, so its subtasks read only chunks stored before it.
    * Each wave's subtasks run concurrently on the band threads; then the
    * calling thread commits them one by one, in subtask order (see
    * `commit`), so that what the engine records does not depend on which
    * band finished first.
    */
  def execute(targets: Seq[ChunkTask]): Unit = {
    val need = ChunkGraph.closure(targets, isMaterialized)
    if (need.isEmpty) return
    // Already in topological order of the subtask graph.
    val subtasks = SubtaskGraph.build(need, config.graphFusion)
    stats.tasksFusedAway += (need.size - subtasks.size)

    val stById = subtasks.map(st => st.id -> st).toMap
    val owner: Map[Long, Long] = subtasks.flatMap(st => st.tasks.map(t => t.id -> st.id)).toMap

    val bands = scheduler.assign(
      subtasks.map(_.id),
      id => stById(id).externalInputs.isEmpty,
      id => stById(id).externalInputs.map { t =>
        val bytes = metaOf(t).map(_.bytes).getOrElse(1L)
        owner.get(t.id) match {
          case Some(sid) => (Right(sid): Either[Int, Long], bytes)
          case None      => (Left(storage.bandOf(keyOf(t)).getOrElse(0)): Either[Int, Long], bytes)
        }
      },
    )

    val targetIds = targets.map(_.id).toSet
    val succAll = Dag.successors(need, (t: ChunkTask) => t.inputs)
    SubtaskGraph.waves(subtasks).foreach { wave =>
      runWave(wave, st => runSubtask(st, bands(st.id), targetIds, succAll)).foreach(commit)
    }
  }

  /** Run one wave's subtasks, at most `numBands` at a time on the band
    * threads (a wave of one runs on the calling thread), and return their
    * runs in wave order. If a subtask fails, the chunks the wave filled
    * are dropped and the first failure in wave order is rethrown as
    * raised.
    */
  private def runWave(wave: Vector[Subtask], run: Subtask => SubtaskRun): Vector[SubtaskRun] = {
    if (wave.size == 1) return Vector(run(wave.head))
    val results = new Array[Try[SubtaskRun]](wave.size)
    val next = new AtomicInteger(0)
    val failed = new AtomicBoolean(false)
    val pool = Engine.bandThreads(config.numBands)
    // `withThreadLocalCaptured` makes `spark` the band thread's active
    // session and gives it the caller's Spark local properties (job group,
    // scheduler pool), so its jobs look as if the caller ran them.
    val lanes = Vector.fill(math.min(wave.size, config.numBands)) {
      SQLExecution.withThreadLocalCaptured(spark.asInstanceOf[classic.SparkSession], pool) {
        var i = next.getAndIncrement()
        while (i < wave.size && !failed.get) {
          results(i) = try Success(run(wave(i))) catch { case e: Throwable => Failure(e) }
          if (results(i).isFailure) failed.set(true)
          i = next.getAndIncrement()
        }
      }
    }
    lanes.foreach(_.join())
    val runs = results.toVector.filter(_ != null)
    runs.collectFirst { case Failure(e) => e }.foreach { e =>
      runs.foreach(_.foreach(r => dropFills(r.accesses)))
      throw e
    }
    runs.map(_.get)
  }

  /** Run one subtask's chunk tasks and fill the cache of each exposed
    * chunk (a target, or a chunk consumed outside the subtask). Touches
    * no engine state: it reads stored chunks without counting the reads,
    * and registers nothing. `commit` does both, in the order recorded.
    * On failure, the chunks it filled are dropped.
    */
  private def runSubtask(
      st: Subtask,
      band: Int,
      targetIds: Set[Long],
      succAll: Map[ChunkTask, Vector[ChunkTask]],
  ): SubtaskRun = {
    val t0 = System.nanoTime()
    val inSt = st.taskIds
    val local = mutable.Map[Long, DataFrame]()
    val accesses = mutable.ArrayBuffer[Access]()

    def dfOf(t: ChunkTask): DataFrame =
      local.getOrElse(t.id, { accesses += Read(t); storage.read(keyOf(t)) })

    // Operator-level fusion: collapse chains of narrow tasks inside the
    // subtask into one composed pipe, so Catalyst sees a single
    // projection/filter instead of a chain of intermediate plans.
    val skip = mutable.Set[Long]()
    val effPipe = mutable.Map[Long, NarrowPipe]()
    val effIns = mutable.Map[Long, Vector[ChunkTask]]()
    var narrowFused = 0L
    if (config.operatorFusion) {
      st.tasks.foreach { t =>
        t.narrow.foreach { p =>
          var pipe = p
          var ins = t.inputs
          if (t.inputs.size == 1) {
            val in = t.inputs.head
            if (inSt.contains(in.id) && effPipe.contains(in.id) && !targetIds.contains(in.id) &&
                succAll(in).size == 1) {
              skip += in.id
              narrowFused += effPipe(in.id).steps.size
              pipe = effPipe(in.id) ++ p
              ins = effIns(in.id)
            }
          }
          effPipe(t.id) = pipe
          effIns(t.id) = ins
        }
      }
    }

    // Execution plan: which tasks run, their effective inputs, and how
    // many internal consumers each output has. A fused subtask must
    // compute each member ONCE (the paper's subtask semantics): outputs
    // consumed by several internal tasks — e.g. a map feeding its R
    // bucket splits — are pinned with a one-shot Spark persist, since
    // chunk fragments are lazy plans that would otherwise recompute.
    val execTasks = st.tasks.filterNot(t => skip.contains(t.id))
    def effInputs(t: ChunkTask): Vector[ChunkTask] =
      if (config.operatorFusion && effIns.contains(t.id)) effIns(t.id) else t.inputs
    val internalUses = mutable.Map[Long, Int]().withDefaultValue(0)
    execTasks.foreach(t => effInputs(t).foreach { i =>
      if (inSt.contains(i.id)) internalUses(i.id) += 1
    })

    val temps = mutable.ArrayBuffer[DataFrame]()
    try {
      execTasks.foreach { t =>
        val out =
          if (config.operatorFusion && effPipe.contains(t.id))
            effPipe(t.id)(dfOf(effInputs(t).head), fused = true)
          else t.compute(t.inputs.map(dfOf))
        local(t.id) = out
        // Fill exposed outputs immediately (targets, or chunks consumed
        // outside this subtask) so downstream internal consumers reuse the
        // materialized chunk instead of recomputing the plan. Every task
        // here is unmaterialized: `execute` runs only the closure of what
        // is not stored.
        if (targetIds.contains(t.id) || succAll(t).exists(s => !inSt.contains(s.id)))
          accesses += Fill(t, storage.putFill(out))
        else if (internalUses(t.id) > 1) {
          out.persist(SparkLevel.MEMORY_AND_DISK)
          temps += out
        }
      }
    } catch {
      case e: Throwable => dropFills(accesses); throw e
    } finally temps.foreach(_.unpersist(false))
    SubtaskRun(st, band, accesses.toVector, execTasks.size, narrowFused, (System.nanoTime() - t0) / 1e6)
  }

  /** Unpersist the chunks a subtask filled but did not commit. */
  private def dropFills(accesses: Iterable[Access]): Unit =
    accesses.foreach { case Fill(_, f) => f.df.unpersist(false); case _ => }

  /** Record a run subtask, on the calling thread: replay its storage reads
    * and register its filled chunks (which may spill) in the order it made
    * them, then update `materialized`, the counters and the trace. The
    * LRU clock, spill victims, counters and trace are those of running
    * the subtasks one after another in this order. Until its commit, a
    * wave's filled chunks are outside the memory tier's budget.
    */
  private def commit(run: SubtaskRun): Unit = {
    var inputBytes = 0L
    var outputBytes = 0L
    var remoteBytes = 0L
    run.accesses.foreach {
      case Read(t) =>
        val bytes = metaOf(t).map(_.bytes).getOrElse(0L)
        inputBytes += bytes
        if (!storage.bandOf(keyOf(t)).contains(run.band)) remoteBytes += bytes
        storage.recordGet(keyOf(t), run.band)
      case Fill(t, filled) =>
        val meta = storage.putRegister(keyOf(t), filled, run.band)
        materialized += t.id
        stats.chunksMaterialized += 1
        stats.bytesMaterialized += meta.bytes
        outputBytes += meta.bytes
    }
    stats.tasksExecuted += run.tasksRun
    stats.narrowStepsFused += run.narrowFused
    stats.subtasksExecuted += 1
    stats.traces += SubtaskTrace(
      run.st.id, run.st.tasks.map(_.label), run.band, inputBytes, outputBytes, remoteBytes, run.wallMs)
  }

  // ---------------------------------------------------------------------
  // Collection (deferred evaluation endpoint)
  // ---------------------------------------------------------------------

  /** Tile + execute + concatenate the tileable's chunks in row order.
    * This is the paper's deferred-evaluation trigger (`__repr__`).
    */
  def collect(t: Tileable): DataFrame = {
    val chunks = tile(t)
    execute(chunks)
    val dfs = chunks.sortBy(_.index).map(c => storage.get(keyOf(c), 0))
    val all = dfs.reduce(_ unionByName _)
    if (all.columns.contains(Cols.RowId)) all.drop(Cols.RowId) else all
  }

  /** Total rows of the tileable from chunk metadata alone. */
  def countRows(t: Tileable): Long = {
    val chunks = tile(t)
    execute(chunks)
    chunks.flatMap(metaOf).map(_.rows).sum
  }

  /** Number of output chunks the tileable tiles into. */
  def numChunks(t: Tileable): Int = tile(t).size

  /** Drop all cached state (chunks, sources, tiling cache). */
  def reset(): Unit = {
    storage.reset()
    sourceCache.values.foreach(_._1.unpersist(true))
    sourceCache.clear()
    tiledCache.clear()
    materialized.clear()
  }
}

object Engine {
  /** A subtask run on a band, not yet committed: the stored chunks it read
    * and the chunks it filled, in order, and what it measured.
    */
  private final case class SubtaskRun(
      st: Subtask,
      band: Int,
      accesses: Vector[Access],
      tasksRun: Int,
      narrowFused: Long,
      wallMs: Double,
  )

  private sealed trait Access
  private final case class Read(t: ChunkTask) extends Access
  private final case class Fill(t: ChunkTask, filled: StorageService.Filled) extends Access

  /** The band threads, shared by every engine in the process: daemon
    * threads, at most as many as the most bands an engine has asked for,
    * which exit after a minute idle.
    */
  private val bandPool = {
    val n = new AtomicInteger(0)
    val factory: ThreadFactory = r => {
      val t = new Thread(r, s"repro-band-${n.incrementAndGet()}")
      t.setDaemon(true)
      t
    }
    val p = new ThreadPoolExecutor(1, 1, 60, TimeUnit.SECONDS, new LinkedBlockingQueue[Runnable](), factory)
    p.allowCoreThreadTimeOut(true)
    p
  }

  private def bandThreads(bands: Int): ExecutorService = bandPool.synchronized {
    if (bands > bandPool.getMaximumPoolSize) {
      bandPool.setMaximumPoolSize(bands)
      bandPool.setCorePoolSize(bands)
    }
    bandPool
  }

  /** Chunks per input executed eagerly to collect metadata before a
    * reduce or merge plan is chosen (§IV-B).
    */
  val SampleChunks = 2
  /** Fan-in of one combine node in tree reduce (§IV-C auto merge). */
  val CombineFanIn = 4

  /** Concatenate chunk fragments into one chunk. A union has one
    * partition per input; coalescing (no shuffle) keeps the chunk one
    * partition.
    */
  def concat(dfs: Seq[DataFrame]): DataFrame = dfs.reduce(_ unionByName _).coalesce(1)
}

/** Row-id regeneration for order-producing operators (sort). */
object Reindex {

  /** Append a fresh global `__rowid` following the DataFrame's current
    * (partition-major) order.
    */
  def withRowId(df: DataFrame): DataFrame = {
    val base = if (df.columns.contains(Cols.RowId)) df.drop(Cols.RowId) else df
    val schema = base.schema.add(Cols.RowId, LongType, nullable = false)
    val rdd = base.rdd.zipWithIndex().map { case (r, i) => Row.fromSeq(r.toSeq :+ i) }
    base.sparkSession.createDataFrame(rdd, schema)
  }
}
