package repro.fusion

import repro.core.ChunkTask

/** A subtask: a fused subgraph of chunk tasks scheduled as one unit on
  * one band (paper §III-C "Subtask Graph").
  *
  * @param id    subtask id (first member task's id)
  * @param tasks member tasks in topological order
  */
final case class Subtask(id: Long, tasks: Vector[ChunkTask]) {
  val taskIds: Set[Long] = tasks.map(_.id).toSet
  /** External input tasks (producers outside this subtask). */
  val externalInputs: Vector[ChunkTask] =
    tasks.flatMap(_.inputs).filterNot(t => taskIds.contains(t.id)).distinctBy(_.id)
}

/** Builds the subtask graph from a chunk-task subgraph. */
object SubtaskGraph {

  /** Fuse `tasks` (a closed subgraph: inputs either inside or already
    * materialized) into subtasks via the coloring algorithm. When
    * `graphFusion` is false every task becomes its own subtask. This is
    * the only place the chunk graph is sorted: the result is in
    * topological order of the subtask graph, ready to run as returned.
    */
  def build(tasks: Vector[ChunkTask], graphFusion: Boolean): Vector[Subtask] = {
    val topo = Dag.topoSort(tasks, (t: ChunkTask) => t.inputs)
    if (!graphFusion) return topo.map(t => Subtask(t.id, Vector(t)))
    val inSet = topo.toSet
    val preds = (t: ChunkTask) => t.inputs.filter(inSet.contains)
    val succ = Dag.successors(topo, preds)
    Coloring.fuse(topo, preds, succ).map(g => Subtask(g.head.id, g))
  }

  /** Subtask-level predecessor map (by subtask id), restricted to the
    * given subtasks; materialized inputs are not included.
    */
  def preds(subtasks: Vector[Subtask]): Map[Long, Vector[Long]] = {
    val owner: Map[Long, Long] =
      subtasks.flatMap(st => st.tasks.map(t => t.id -> st.id)).toMap
    subtasks.map { st =>
      val ps = st.externalInputs.flatMap(t => owner.get(t.id)).distinct
      st.id -> ps
    }.toMap
  }

  /** The subtasks grouped by dependency level, each level in the order
    * of `subtasks` (which must be topological): a level's subtasks read
    * only chunks that earlier levels or earlier calls produced.
    */
  def waves(subtasks: Vector[Subtask]): Vector[Vector[Subtask]] = {
    val byId = subtasks.map(st => st.id -> st).toMap
    Dag.levels(subtasks.map(_.id), preds(subtasks)).map(_.map(byId))
  }

  /** Topological order of subtasks (inputs first). The engine needs no
    * such sort, since `build` already returns this order; its one caller
    * is perfbench's `Planner`.
    */
  def topoOrder(subtasks: Vector[Subtask]): Vector[Subtask] = {
    val byId = subtasks.map(st => st.id -> st).toMap
    Dag.topoSort(subtasks.map(_.id), preds(subtasks)).map(byId)
  }
}
