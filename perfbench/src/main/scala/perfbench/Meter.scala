package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.storage.RDDInfo

import repro.core.{ChunkTask, Engine, SubtaskTrace, Tileable}

/** What one operation (a query or a pipeline pass) measured. */
final class OpRec(val name: String) {
  var startMs: Long = 0
  var endMs: Long = 0
  var wallS: Double = 0
  var failed: Boolean = false
  /** Seconds spent inside each public call the benchmark times. */
  val secs: mutable.Map[String, Double] = mutable.LinkedHashMap[String, Double]().withDefaultValue(0.0)
  /** Subtasks the engine ran inside `Engine.tile` and elsewhere. */
  val tileTraces: mutable.ArrayBuffer[SubtaskTrace] = mutable.ArrayBuffer.empty
  val execTraces: mutable.ArrayBuffer[SubtaskTrace] = mutable.ArrayBuffer.empty
  /** Counter deltas over the operation, and levels at its end. */
  val counts: mutable.Map[String, Double] = mutable.LinkedHashMap[String, Double]().withDefaultValue(0.0)
  /** Driver-thread samples by layer (traced run only). */
  val prof: mutable.Map[String, Long] = mutable.LinkedHashMap[String, Long]()
  /** Output chunk tasks, kept for the graph replay. */
  var chunks: Vector[ChunkTask] = Vector.empty
  /** Planning measured directly or by replay (traced run). */
  var plan: Option[Planner.Plan] = None
}

/** Times the benchmark's calls into the engine's public API for the
  * operation currently recorded in `rec`.
  */
final class Meter(val engine: Engine, sampler: Option[Sampler]) {
  var rec: OpRec = new OpRec("")

  def apply[T](layer: String)(f: => T): T = {
    val n0 = engine.stats.traces.size
    val t0 = System.nanoTime()
    val inAction = layer == "action"
    sampler.foreach(_.inAction = inAction)
    try f
    finally {
      rec.secs(layer) += (System.nanoTime() - t0) / 1e9
      sampler.foreach(_.inAction = false)
      val added = engine.stats.traces.drop(n0)
      if (layer == "tile") rec.tileTraces ++= added else rec.execTraces ++= added
    }
  }

  def tile(t: Tileable): Vector[ChunkTask] = {
    val chunks = apply("tile")(engine.tile(t))
    rec.chunks = chunks
    chunks
  }
}

/** Engine and block-manager counters, read between operations. */
object Counters {

  /** Engine and storage-service counters (cumulative). */
  def engine(e: Engine): Map[String, Double] = {
    val s = e.stats
    val st = e.storage.stats
    Map(
      "core.tile_switches" -> s.tileExecSwitches.toDouble,
      "core.tree_reduces" -> s.treeReduces.toDouble,
      "core.shuffle_reduces" -> s.shuffleReduces.toDouble,
      "core.broadcast_merges" -> s.broadcastMerges.toDouble,
      "core.shuffle_merges" -> s.shuffleMerges.toDouble,
      "core.narrow_steps_fused" -> s.narrowStepsFused.toDouble,
      "storage.puts" -> st.puts.toDouble,
      "storage.gets" -> st.gets.toDouble,
      "storage.put_mb" -> s.bytesMaterialized / SparkJobs.MB,
      "storage.spills" -> st.spills.toDouble,
      "storage.spilled_mb" -> st.spilledBytes / SparkJobs.MB,
    )
  }

  /** Block-manager memory of the cached RDD blocks that `keep` selects,
    * in MB. Broadcast blocks are left out: the context cleaner frees them
    * whenever the JVM collects garbage. Reads repeat until two agree, so
    * that pending non-blocking unpersists have landed.
    */
  def cachedMemMb(sc: SparkContext, keep: RDDInfo => Boolean = _ => true): Double = {
    def read() = sc.getRDDStorageInfo.filter(keep).map(_.memSize).sum
    var prev = read()
    Thread.sleep(20)
    var cur = read()
    var tries = 0
    while (cur != prev && tries < 50) { prev = cur; Thread.sleep(20); cur = read(); tries += 1 }
    cur / SparkJobs.MB
  }

  /** Memory held by cached chunks: every cached RDD except the generated
    * inputs and the engine's indexed sources.
    */
  def chunkMemMb(sc: SparkContext, inputRdds: Set[Int]): Double =
    cachedMemMb(sc, r => !inputRdds.contains(r.id) && !r.name.contains("ExistingRDD"))
}
