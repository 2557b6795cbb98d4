package perfbench

import repro.core.{ChunkGraph, ChunkTask, Engine}
import repro.fusion.SubtaskGraph

/** Plans a chunk graph the way `Engine.execute` does — graph-level
  * fusion, then band scheduling — and executes nothing. `plan_wide`
  * times this directly; the traced run replays it on every query's
  * full chunk graph.
  */
object Planner {

  final case class Plan(
      chunkTasks: Int,
      subtasks: Int,
      buildMs: Double,
      assignMs: Double,
      /** Input bytes whose producer sits on another band ÷ all input bytes. */
      remoteFrac: Double,
      /** Sorted subtask sizes and per-band subtask counts: the plan's shape. */
      shape: (Vector[Int], Vector[Int]),
      /** Structural faults: tasks not in exactly one subtask, order or band violations. */
      faults: Vector[String],
  )

  def plan(engine: Engine, targets: Seq[ChunkTask], isMaterialized: ChunkTask => Boolean): Plan = {
    val graph = ChunkGraph.closure(targets, isMaterialized)
    val t0 = System.nanoTime()
    val subtasks = SubtaskGraph.build(graph, engine.config.graphFusion)
    val buildMs = (System.nanoTime() - t0) / 1e6

    val order = SubtaskGraph.topoOrder(subtasks)
    val preds = SubtaskGraph.preds(subtasks)
    val byId = subtasks.map(st => st.id -> st).toMap
    val owner: Map[Long, Long] = subtasks.flatMap(st => st.tasks.map(t => t.id -> st.id)).toMap
    def bytes(t: ChunkTask): Long = engine.metaOf(t).map(_.bytes).getOrElse(1L)

    val t1 = System.nanoTime()
    val bands = engine.scheduler.assign(
      order.map(_.id),
      id => preds(id).isEmpty && byId(id).externalInputs.isEmpty,
      id => byId(id).externalInputs.map { t =>
        owner.get(t.id) match {
          case Some(sid) => (Right(sid): Either[Int, Long], bytes(t))
          case None      => (Left(0): Either[Int, Long], bytes(t))
        }
      },
    )
    val assignMs = (System.nanoTime() - t1) / 1e6

    var inBytes, remote = 0L
    subtasks.foreach(st => st.externalInputs.foreach { t =>
      owner.get(t.id).foreach { p =>
        inBytes += bytes(t)
        if (bands(p) != bands(st.id)) remote += bytes(t)
      }
    })

    val faults = Vector.newBuilder[String]
    val members = subtasks.flatMap(_.tasks.map(_.id))
    if (members.size != graph.size || members.toSet != graph.map(_.id).toSet)
      faults += s"${members.size} subtask members for ${graph.size} chunk tasks"
    val pos = order.map(_.id).zipWithIndex.toMap
    if (order.exists(st => preds(st.id).exists(p => pos(p) > pos(st.id))))
      faults += "a subtask is ordered before one of its producers"
    val nBands = engine.scheduler.numBands
    if (bands.size != subtasks.size || bands.values.exists(b => b < 0 || b >= nBands))
      faults += s"band assignment out of range or incomplete (${bands.size} of ${subtasks.size})"

    val perBand = (0 until nBands).toVector.map(b => bands.values.count(_ == b))
    Plan(graph.size, subtasks.size, buildMs, assignMs,
      if (inBytes == 0) 0.0 else remote.toDouble / inBytes,
      (subtasks.map(_.tasks.size).sorted, perBand), faults.result())
  }
}
