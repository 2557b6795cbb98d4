package repro.core

import scala.collection.mutable

/** Trace of one executed subtask, consumed by the memory simulator and
  * the locality statistics.
  *
  * @param band        band the subtask ran on
  * @param inputBytes  bytes read from the storage service
  * @param outputBytes bytes written to the storage service
  * @param remoteBytes input bytes whose producing band differed (simulated
  *                    network transfer)
  * @param wallMs      measured wall time of the subtask
  */
final case class SubtaskTrace(
    subtaskId: Long,
    labels: Seq[String],
    band: Int,
    inputBytes: Long,
    outputBytes: Long,
    remoteBytes: Long,
    wallMs: Double,
)

/** Mutable counters collected by one engine instance. */
final class EngineStats {
  /** Tiling ↔ execution switches (the paper's `yield` count). */
  var tileExecSwitches: Long = 0
  var subtasksExecuted: Long = 0
  var tasksExecuted: Long = 0
  var chunksMaterialized: Long = 0
  var bytesMaterialized: Long = 0
  /** Narrow tasks a subtask ran inside a consumer's plan, without storing
    * their output: the operators left to Catalyst's operator-level fusion.
    * Always 0 with graph fusion off, where every task is its own subtask.
    */
  var narrowStepsFused: Long = 0
  var treeReduces: Long = 0
  var shuffleReduces: Long = 0
  var broadcastMerges: Long = 0
  var shuffleMerges: Long = 0
  val traces: mutable.ArrayBuffer[SubtaskTrace] = mutable.ArrayBuffer.empty

  def remoteBytes: Long = traces.map(_.remoteBytes).sum

  override def toString: String =
    s"EngineStats(switches=$tileExecSwitches, subtasks=$subtasksExecuted, " +
      s"materialized=$chunksMaterialized/${bytesMaterialized}B, fusedNarrow=$narrowStepsFused, " +
      s"tree=$treeReduces, shuffle=$shuffleReduces, " +
      s"bcast=$broadcastMerges, shufMerge=$shuffleMerges, remote=${remoteBytes}B)"
}
