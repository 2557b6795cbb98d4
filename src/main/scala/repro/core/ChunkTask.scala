package repro.core

import org.apache.spark.sql.DataFrame

/** A node of the chunk graph (paper §III-C): one operator application
  * producing one output chunk.
  *
  * Circles in the paper's figures are these tasks; squares (chunks) are
  * the tasks' outputs, identified by the task id in the storage service.
  * A task carries no index of its own, and its rows carry no row ids:
  * the row index of a chunk in a tileable (the paper's distributed index,
  * Fig 4) is its position in the tileable's `Engine.tile` result, and a
  * row's position inside the chunk is its position in the chunk's one
  * stored Spark partition (see `ordered`).
  *
  * @param id      unique id within an engine (also the storage key)
  * @param label   human-readable operator label, e.g. "GroupbyAgg::map[3]"
  * @param inputs  upstream tasks whose output chunks this task consumes
  * @param compute pure Catalyst fragment: input chunk DataFrames →
  *                output chunk DataFrame (lazy; materialization happens
  *                only through the storage service)
  * @param narrow  the task applies one narrow operator to its one input
  *                (`EngineStats.narrowStepsFused` counts those a subtask
  *                runs inside a consumer's plan)
  * @param ordered the chunk's one stored partition holds its rows in the
  *                frame's row order, so `iloc` may cut rows out of it by
  *                position: source slices, sort and iloc slices, and
  *                narrow tasks over such a chunk. Reduces, joins and
  *                pivots emit their rows in no defined order.
  */
final class ChunkTask(
    val id: Long,
    val label: String,
    val inputs: Vector[ChunkTask],
    val compute: Seq[DataFrame] => DataFrame,
    val narrow: Boolean,
    val ordered: Boolean,
) {
  override def toString: String = s"ChunkTask($id, $label)"
  override def hashCode(): Int = id.hashCode()
  override def equals(o: Any): Boolean = o match {
    case t: ChunkTask => t.id == id
    case _            => false
  }
}

/** Graph utilities over sets of chunk tasks. */
object ChunkGraph {

  /** All tasks reachable from `targets` through `inputs`, stopping at
    * (and excluding) tasks for which `isMaterialized` holds — those are
    * already chunks in the storage service.
    */
  def closure(targets: Seq[ChunkTask], isMaterialized: ChunkTask => Boolean): Vector[ChunkTask] = {
    val seen = scala.collection.mutable.LinkedHashSet[ChunkTask]()
    def visit(t: ChunkTask): Unit =
      if (!isMaterialized(t) && !seen.contains(t)) {
        seen += t
        t.inputs.foreach(visit)
      }
    targets.foreach(visit)
    seen.toVector
  }
}
