package repro.core

import java.util.concurrent.{ExecutorService, LinkedBlockingQueue, ThreadFactory, ThreadPoolExecutor, TimeUnit}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicLong}
import scala.annotation.tailrec
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{classic, CachedLeaf, Column, DataFrame, SparkSession}
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions._

import repro.fusion.{Subtask, SubtaskGraph}
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
  * whose rows are in no defined order (the output of a reduce, join or
  * pivot: see `ChunkTask.ordered`), so that positions within it are
  * undefined.
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
  * inside a chunk, whatever `spark.sql.shuffle.partitions` says. Stored
  * chunks and sources are leaves that declare `SinglePartition`
  * (`CachedLeaf`), and a disk-tier spill keeps it. `Engine.concat` and
  * a put's `CachedLeaf.fill` coalesce (without a shuffle) to one
  * partition: the places where more partitions, or an unknown
  * partitioning, can appear. Joins take the same care (see `tileMerge`).
  */
final class Engine(val spark: SparkSession, val config: EngineConfig) {
  import Engine.{bucket, concat, rowRange, SubtaskRun}
  import TileResult._
  import TileableOp._

  val storage = new StorageService(config.memoryBudget)
  val scheduler = new Scheduler(Engine.Workers, Engine.BandsPerWorker)
  val stats = new EngineStats

  private val idGen = new AtomicLong(0)
  private val tiledCache = new java.util.IdentityHashMap[Tileable, Vector[ChunkTask]]()
  /** Each source DataFrame, by reference, with the leaf its chunks cut. */
  private val sourceCache = new java.util.IdentityHashMap[DataFrame, CachedLeaf]()

  // ---------------------------------------------------------------------
  // Task construction
  // ---------------------------------------------------------------------

  private def task(
      label: String,
      inputs: Vector[ChunkTask],
      compute: Seq[DataFrame] => DataFrame,
      narrow: Boolean = false,
      ordered: Boolean = false,
  ): ChunkTask = new ChunkTask(idGen.incrementAndGet(), label, inputs, compute, narrow, ordered)

  private[core] def keyOf(t: ChunkTask): String = s"c${t.id}"

  /** Metadata of a materialized task's chunk, if available (meta service). */
  def metaOf(t: ChunkTask): Option[ChunkMeta] = storage.meta(keyOf(t))

  /** The task's chunk is in the storage service. */
  def isMaterialized(t: ChunkTask): Boolean = storage.contains(keyOf(t))

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
    case s: SortOp     => tileSort(s, ins.head)
    case d: DistinctOp => tileDistinct(d, ins.head)
    case _: ConcatOp   => Tiled(ins.flatten)
    case p: PivotOp    => tilePivot(p, ins.head)
  }

  // -- Planning from measured metadata (§IV-B) ---------------------------

  /** The §IV-B yield: execute the first `SampleChunks` chunks of each
    * side, then `plan` with each side's bytes extrapolated from them (their
    * mean times the side's chunk count).
    */
  private def measured(sides: Vector[ChunkTask]*)(plan: Seq[Long] => TileResult): TileResult = {
    val samples = sides.map(_.take(Engine.SampleChunks))
    NeedExec(samples.flatten.toVector, () => plan(sides.zip(samples).map { case (side, sample) =>
      val bytes = sample.map(metaOf(_).get.bytes)
      (bytes.sum.toDouble / bytes.size * side.size).toLong
    }))
  }

  /** Reducers for `bytes` of measured data: one per chunk-size limit, at
    * least 2 and at most `MaxReducers`.
    */
  private def reducers(bytes: Long): Int =
    math.max(2L, math.min(Engine.MaxReducers.toLong, bytes / math.max(1L, config.chunkSizeLimit) + 1)).toInt

  /** Reducers of the static plan: `staticReducers`, but no more than the
    * input chunks, and at least 2.
    */
  private def staticReducers(chunks: Int): Int = math.max(2, math.min(config.staticReducers, chunks))

  /** Map-Combine-Reduce (§III-C): `map` every chunk, then reduce the map
    * outputs by one of two plans (§IV-B/C auto reduce selection):
    *  - tree: `merge` up to `CombineFanIn` outputs per combine node, level
    *    by level, into one chunk, then `finish` it;
    *  - shuffle: R reducers, reducer b reading bucket b of every map
    *    output (`bucket` on `keys`), then `merge` and `finish` it. Each
    *    map output is stored once, and every reducer filters it.
    * `keys = None` (a global aggregate, with nothing to hash on) always
    * takes the tree; `Some(Nil)` hashes on all user columns. The dynamic
    * arm chooses by the measured size of the map outputs; the static arm
    * always shuffles.
    */
  private def mapReduce(name: String, ins: Vector[ChunkTask], keys: Option[Seq[String]])(
      map: DataFrame => DataFrame,
      merge: Seq[DataFrame] => DataFrame,
      finish: DataFrame => DataFrame,
  ): TileResult = {
    val maps = ins.zipWithIndex.map { case (c, m) => task(s"$name::map[$m]", Vector(c), dfs => map(dfs.head)) }

    def tree(): Vector[ChunkTask] = {
      stats.treeReduces += 1
      var level = maps
      var depth = 0
      // Auto merge (§IV-C): concatenate map outputs up to the fan-in
      // limit per combine node until one chunk remains.
      while (level.size > 1) {
        depth += 1
        level = level.grouped(Engine.CombineFanIn).toVector.zipWithIndex.map { case (grp, r) =>
          if (grp.size == 1) grp.head else task(s"$name::combine$depth[$r]", grp, merge)
        }
      }
      val combined = depth > 0
      Vector(task(s"$name::agg[0]", level, dfs => finish(if (combined) dfs.head else merge(dfs))))
    }

    def shuffle(on: Seq[String], r: Int): Vector[ChunkTask] = {
      stats.shuffleReduces += 1
      (0 until r).toVector.map { b =>
        task(s"$name::agg[$b]", maps, dfs => finish(merge(dfs.map(bucket(_, on, r, b)))))
      }
    }

    keys match {
      case None                              => Tiled(tree())
      case Some(on) if !config.dynamicTiling => Tiled(shuffle(on, staticReducers(ins.size)))
      case Some(on) =>
        measured(maps) { case Seq(bytes) =>
          Tiled(if (bytes <= config.treeReduceThreshold) tree() else shuffle(on, reducers(bytes)))
        }
    }
  }

  // -- Source ------------------------------------------------------------

  /** Split `rows` rows into `n` even row ranges: task `label[r]` is rows
    * [lo, hi) of the one-partition chunk that `whole` builds from its
    * inputs' chunks, in that chunk's row order. Empty ranges get no task.
    */
  private def splitRows(label: String, inputs: Vector[ChunkTask], rows: Long, n: Int)(
      whole: Seq[DataFrame] => DataFrame,
  ): Vector[ChunkTask] = {
    val per = math.max(1L, (rows + n - 1) / n)
    (0 until n).toVector.flatMap { r =>
      val lo = r * per; val hi = math.min(rows, lo + per)
      Option.when(lo < hi)(task(s"$label[$r]", inputs, dfs => rowRange(whole(dfs), lo, hi), ordered = true))
    }
  }

  /** A source's chunks cut row ranges out of one leaf over its cache: the
    * caller's, if the caller cached the source, else one the engine fills
    * in one parallel job. The leaf is one partition holding the source's
    * rows in order, so that every chunk cuts its row range out of the same
    * order.
    */
  private def tileSource(s: SourceOp): TileResult = {
    val indexed = sourceCache.computeIfAbsent(s.df, _ => CachedLeaf.source(s.df, s"source ${s.sourceName}"))
    val rows = indexed.rows
    val bytes = rows * SchemaBytes.rowWidth(s.df.schema)
    val nChunks = math.max(1L, (bytes + config.chunkSizeLimit - 1) / config.chunkSizeLimit).toInt
    val label = s"Read(${s.sourceName})"
    Tiled(
      if (nChunks == 1) Vector(task(s"$label[0]", Vector.empty, _ => indexed.df, ordered = true))
      else splitRows(label, Vector.empty, rows, nChunks)(_ => indexed.df))
  }

  // -- Narrow ------------------------------------------------------------

  private def tileNarrow(nop: NarrowOp, ins: Vector[ChunkTask]): TileResult =
    Tiled(ins.zipWithIndex.map { case (c, r) =>
      task(s"${nop.label}[$r]", Vector(c), dfs => nop.f(dfs.head), narrow = true, ordered = c.ordered)
    })

  // -- GroupbyAgg and Distinct: map → (combine)* or → shuffle ------------

  private def tileGroupAgg(g: GroupAggOp, ins: Vector[ChunkTask]): TileResult = {
    def byKeys(df: DataFrame, exprs: Seq[Column]): DataFrame =
      df.groupBy(g.keys.map(col): _*).agg(exprs.head, exprs.tail: _*)
    mapReduce("GroupbyAgg", ins, Option.when(g.keys.nonEmpty)(g.keys))(
      map = byKeys(_, AggSpec.mapExprs(g.aggs)),
      merge = dfs => byKeys(concat(dfs), AggSpec.mergeExprs(g.aggs)),
      finish = _.select(AggSpec.finalExprs(g.keys, g.aggs): _*))
  }

  private def tileDistinct(d: DistinctOp, ins: Vector[ChunkTask]): TileResult = {
    def dedup(df: DataFrame): DataFrame =
      if (d.subset.isEmpty) df.dropDuplicates() else df.dropDuplicates(d.subset)
    mapReduce("Distinct", ins, Some(d.subset))(map = dedup, merge = dfs => dedup(concat(dfs)), finish = identity)
  }

  // -- Merge: broadcast vs hash-shuffle ----------------------------------

  private def tileMerge(m: MergeOp, left: Vector[ChunkTask], right: Vector[ChunkTask]): TileResult = {
    val on = m.on

    def joinCompute(l: DataFrame, r: DataFrame): DataFrame = {
      if (m.how == "cross") return l.crossJoin(r)
      // Only joins that output the right side's columns can clash.
      val overlap =
        if (m.how == "leftsemi" || m.how == "leftanti") Set.empty[String]
        else (l.columns.toSet intersect r.columns.toSet) -- on.toSet
      val lr = overlap.foldLeft(l)((d, c) => d.withColumnRenamed(c, s"${c}_x"))
      val rr = overlap.foldLeft(r)((d, c) => d.withColumnRenamed(c, s"${c}_y"))
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
        else task("Merge::concatSmall[0]", small, concat)
      big.zipWithIndex.map { case (b, r) =>
        task(s"Merge::join[$r]", Vector(b, concatSmall), dfs =>
          if (smallLeft) joinCompute(broadcast(dfs(1)), dfs(0))
          else joinCompute(dfs(0), broadcast(dfs(1))))
      }
    }

    def shuffleMerge(r: Int): Vector[ChunkTask] = {
      stats.shuffleMerges += 1
      val nl = left.size
      (0 until r).toVector.map { b =>
        task(s"Merge::join[$b]", left ++ right, dfs => {
          val parts = dfs.map(bucket(_, on, r, b))
          joinCompute(concat(parts.take(nl)), concat(parts.drop(nl)))
        })
      }
    }

    if (m.how == "cross") Tiled(broadcastMerge(left, right, smallLeft = false))
    else if (!config.dynamicTiling) Tiled(shuffleMerge(staticReducers(math.max(left.size, right.size))))
    else measured(left, right) { case Seq(el, er) =>
      // Broadcasting the LEFT side is only sound for inner joins: for
      // left/leftsemi/leftanti the output must stay partitioned by the
      // left chunks (each right chunk would otherwise see a partial
      // right table and duplicate or drop left rows).
      val canBroadcastLeft = m.how == "inner" && el <= config.broadcastThreshold
      if (er <= config.broadcastThreshold && (er <= el || !canBroadcastLeft))
        Tiled(broadcastMerge(left, right, smallLeft = false))
      else if (canBroadcastLeft) Tiled(broadcastMerge(right, left, smallLeft = true))
      else Tiled(shuffleMerge(reducers(el + er)))
    }
  }

  // -- ILoc / Head: iterative tiling (paper Fig 3c) ----------------------

  private def tileILoc(i: ILocOp, ins: Vector[ChunkTask]): TileResult = {
    if (!config.dynamicTiling)
      throw new UnsupportedOperationException(
        "iloc/head requires dynamic tiling (static engines cannot position rows)")
    NeedExec(ins, () => {
      val offsets = ins.map(t => metaOf(t).map(_.rows).getOrElse(0L)).scanLeft(0L)(_ + _)
      val lo = i.start; val hi = i.start + i.count
      val chunks = ins.indices.toVector.flatMap { j =>
        val cLo = offsets(j); val cHi = offsets(j + 1)
        val s = math.max(lo, cLo); val e = math.min(hi, cHi)
        if (s >= e) None
        else if (s == cLo && e == cHi) Some(ins(j)) // the whole chunk
        else {
          // Positions within a chunk are those of its one stored
          // partition, which are the frame's only if the chunk is ordered.
          if (!ins(j).ordered)
            throw new UnorderedLineageException(
              s"iloc needs row order inside chunk ${ins(j).label}, whose lineage lost it " +
                "(sort_values first after shuffles)")
          Some(task(s"ILoc::slice[$j]", Vector(ins(j)), dfs => rowRange(dfs.head, s - cLo, e - cLo), ordered = true))
        }
      }
      if (chunks.nonEmpty) Tiled(chunks)
      else Tiled(Vector(task("ILoc::empty[0]", Vector(ins.head), dfs => dfs.head.limit(0))))
    })
  }

  // -- Sort: concat → global sort → resplit -------------------------------

  private def tileSort(s: SortOp, ins: Vector[ChunkTask]): TileResult = {
    val sortCols = s.by.zip(s.ascending).map { case (c, asc) => if (asc) col(c).asc else col(c).desc }
    val sorted = task("Sort::global[0]", ins, dfs => concat(dfs).orderBy(sortCols: _*), ordered = true)
    NeedExec(Vector(sorted), () => {
      val meta = metaOf(sorted).get
      val nChunks = math.max(1L, meta.bytes / math.max(1L, config.chunkSizeLimit) + 1).toInt
      if (nChunks <= 1) Tiled(Vector(sorted))
      else Tiled(splitRows("Sort::split", Vector(sorted), meta.rows, nChunks)(_.head))
    })
  }

  // -- Pivot: non-relational reshape, single output chunk ----------------

  private def tilePivot(p: PivotOp, ins: Vector[ChunkTask]): TileResult =
    Tiled(Vector(task("Pivot[0]", ins, dfs =>
      p.aggregate(concat(dfs).groupBy(col(p.index)).pivot(p.columns)))))

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

    // The chunks to store: the targets, every chunk that another subtask
    // of this call reads, and every chunk that two or more task inputs
    // read (a map output that each reducer of a shuffle filters), so that
    // it is computed once.
    val readTwice = need.flatMap(_.inputs.map(_.id)).groupBy(identity).collect { case (id, rs) if rs.size > 1 => id }
    val exposed = targets.map(_.id).toSet ++ subtasks.flatMap(_.externalInputs.map(_.id)) ++ readTwice
    SubtaskGraph.waves(subtasks).foreach { wave =>
      runWave(wave, st => runSubtask(st, bands(st.id), exposed)).foreach(commit)
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
    // `withThreadLocalCaptured` makes `spark` the band thread's active
    // session and gives it the caller's Spark local properties (job group,
    // scheduler pool), so its jobs look as if the caller ran them.
    val lanes = Vector.fill(math.min(wave.size, scheduler.numBands)) {
      SQLExecution.withThreadLocalCaptured(spark.asInstanceOf[classic.SparkSession], Engine.bandPool) {
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
      runs.foreach(_.foreach(_.fills.values.foreach(storage.discard)))
      throw e
    }
    runs.map(_.get)
  }

  /** Run one subtask's chunk tasks and fill the cache of each exposed
    * chunk, which its consumers inside the subtask then read. Every other
    * task's plan is part of its one consumer's plan (operator-level
    * fusion: Catalyst collapses and compiles it), so each task runs once.
    * Touches no engine state: it reads stored chunks without counting the
    * reads, and registers nothing; `commit` does both. On failure, the
    * chunks it filled are dropped.
    */
  private def runSubtask(st: Subtask, band: Int, exposed: Set[Long]): SubtaskRun = {
    val t0 = System.nanoTime()
    val local = mutable.Map[Long, DataFrame]()
    val fills = mutable.Map[Long, StorageService.Filled]()

    def dfOf(t: ChunkTask): DataFrame = local.getOrElse(t.id, storage.read(keyOf(t)))

    try {
      st.tasks.foreach { t =>
        val out = t.compute(t.inputs.map(dfOf))
        // Every task here is unmaterialized: `execute` runs only the
        // closure of what is not stored. An exposed output is filled at
        // once, and its consumers here read the filled chunk.
        if (exposed.contains(t.id)) {
          val filled = storage.putFill(keyOf(t), out)
          fills(t.id) = filled
          local(t.id) = filled.df
        } else local(t.id) = out
      }
    } catch {
      case e: Throwable => fills.values.foreach(storage.discard); throw e
    }
    SubtaskRun(st, band, fills.toMap, (System.nanoTime() - t0) / 1e6)
  }

  /** Record a run subtask, on the calling thread, as running it here
    * would have: walking its tasks in order, count a storage read of each
    * input from outside the subtask, and register each filled chunk (which
    * may spill); then update the counters and the trace. The LRU clock,
    * spill victims, counters and trace are those of running the subtasks
    * one after another in this order. Until its commit, a wave's filled
    * chunks are outside the memory tier's budget.
    */
  private def commit(run: SubtaskRun): Unit = {
    var inputBytes = 0L
    var outputBytes = 0L
    var remoteBytes = 0L
    run.st.tasks.foreach { t =>
      t.inputs.filterNot(i => run.st.taskIds.contains(i.id)).foreach { i =>
        val bytes = metaOf(i).map(_.bytes).getOrElse(0L)
        inputBytes += bytes
        if (!storage.bandOf(keyOf(i)).contains(run.band)) remoteBytes += bytes
        storage.recordGet(keyOf(i), run.band)
      }
      run.fills.get(t.id) match {
        case Some(filled) =>
          val meta = storage.putRegister(keyOf(t), filled, run.band)
          stats.chunksMaterialized += 1
          stats.bytesMaterialized += meta.bytes
          outputBytes += meta.bytes
        case None => if (t.narrow) stats.narrowStepsFused += 1
      }
    }
    stats.tasksExecuted += run.st.tasks.size
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
    chunks.map(c => storage.get(keyOf(c), 0)).reduce(_ unionByName _)
  }

  /** Total rows of the tileable from chunk metadata alone. */
  def countRows(t: Tileable): Long = {
    val chunks = tile(t)
    execute(chunks)
    chunks.flatMap(metaOf).map(_.rows).sum
  }

  /** Number of output chunks the tileable tiles into. */
  def numChunks(t: Tileable): Int = tile(t).size

  /** Drop all cached state (chunks, sources, tiling cache). A source the
    * caller cached stays cached.
    */
  def reset(): Unit = {
    storage.reset()
    sourceCache.values.forEach(_.release(blocking = true))
    sourceCache.clear()
    tiledCache.clear()
  }
}

object Engine {
  /** A subtask run on a band, not yet committed: the chunks it filled, by
    * task id, and its wall time.
    */
  private final case class SubtaskRun(
      st: Subtask,
      band: Int,
      fills: Map[Long, StorageService.Filled],
      wallMs: Double,
  )

  /** The simulated cluster: workers × bands (NUMA slots) per worker. */
  private val Workers = 4
  private val BandsPerWorker = 2

  /** The band threads, shared by every engine in the process: one daemon
    * thread per band at most, which exits after a minute idle.
    */
  private val bandPool: ExecutorService = {
    val n = new AtomicInteger(0)
    val factory: ThreadFactory = r => {
      val t = new Thread(r, s"repro-band-${n.incrementAndGet()}")
      t.setDaemon(true)
      t
    }
    val bands = Workers * BandsPerWorker
    val p = new ThreadPoolExecutor(bands, bands, 60, TimeUnit.SECONDS, new LinkedBlockingQueue[Runnable](), factory)
    p.allowCoreThreadTimeOut(true)
    p
  }

  /** Chunks per input executed eagerly to collect metadata before a
    * reduce or merge plan is chosen (§IV-B).
    */
  val SampleChunks = 2
  /** Fan-in of one combine node in tree reduce (§IV-C auto merge). */
  val CombineFanIn = 4
  /** Most reducers a measured shuffle reduce or merge uses. */
  val MaxReducers = 64

  /** Concatenate chunk fragments into one chunk. A union has one
    * partition per input; coalescing (no shuffle) keeps the chunk one
    * partition.
    */
  def concat(dfs: Seq[DataFrame]): DataFrame = dfs.reduce(_ unionByName _).coalesce(1)

  /** Bucket `b` of `n` of a chunk: its rows whose `keys` hash to `b`, by
    * all of its columns when `keys` is empty. A shuffle's reducer b reads
    * bucket b of each map output.
    */
  private def bucket(df: DataFrame, keys: Seq[String], n: Int, b: Int): DataFrame = {
    val on = if (keys.isEmpty) df.columns.toSeq else keys
    df.filter(pmod(hash(on.map(col): _*), lit(n)) === b)
  }

  /** Rows [lo, hi) of a one-partition chunk, in its row order. */
  private def rowRange(df: DataFrame, lo: Long, hi: Long): DataFrame =
    df.offset(Math.toIntExact(lo)).limit(Math.toIntExact(hi - lo))
}
