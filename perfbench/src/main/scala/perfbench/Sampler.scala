package perfbench

import java.lang.management.{ManagementFactory, ThreadInfo}

import scala.collection.mutable

/** Samples the driver thread's stack at a fixed period and counts each
  * sample under the layer of its innermost engine frame, into the
  * counter set that `target` currently points at. Only the traced run
  * starts one.
  */
final class Sampler(driver: Thread, periodMs: Long) extends Thread("perfbench-sampler") {
  setDaemon(true)

  @volatile var target: mutable.Map[String, Long] = null
  @volatile var inAction: Boolean = false
  @volatile private var running = true
  private val mx = ManagementFactory.getThreadMXBean

  override def run(): Unit =
    while (running) {
      val t = target
      if (t != null) {
        val info = mx.getThreadInfo(driver.getId, Int.MaxValue)
        if (info != null) {
          val key = Sampler.classify(info, inAction)
          t.synchronized(t(key) = t.getOrElse(key, 0L) + 1)
        }
      }
      Thread.sleep(periodMs)
    }

  def shutdown(): Unit = { running = false; join() }
}

object Sampler {
  val Keys: Seq[String] = Seq(
    "put.driver", "put.wait", "spill", "tile", "run_subtask", "fusion", "sched",
    "action.driver", "action.wait", "other")

  /** The driver is waiting on Spark when it is parked inside Spark code
    * (a job, or AQE waiting for its query stages).
    */
  private def waiting(info: ThreadInfo): Boolean =
    info.getThreadState != Thread.State.RUNNABLE &&
      info.getStackTrace.exists(_.getClassName.startsWith("org.apache.spark."))

  def classify(info: ThreadInfo, inAction: Boolean): String = {
    val frames = info.getStackTrace
    val repro = frames.filter(_.getClassName.startsWith("repro."))
    def has(cls: String, method: String) =
      repro.exists(f => f.getClassName.startsWith(cls) && f.getMethodName.contains(method))
    val wait = if (waiting(info)) "wait" else "driver"
    repro.headOption match {
      case None => if (inAction) s"action.$wait" else "other"
      case Some(f) =>
        val cls = f.getClassName
        if (cls.startsWith("repro.storage.StorageService")) {
          if (has("repro.storage.StorageService", "evictIfNeeded") ||
              frames.exists(_.getClassName.startsWith("org.apache.spark.sql.DataFrameReader"))) "spill"
          else if (has("repro.storage.StorageService", "put")) s"put.$wait"
          else "other"
        } else if (cls.startsWith("repro.fusion.") || cls.startsWith("repro.core.ChunkGraph")) "fusion"
        else if (cls.startsWith("repro.sched.")) "sched"
        else if (has("repro.core.Engine", "runSubtask")) "run_subtask"
        else if (has("repro.core.Engine", "tile")) "tile"
        else "other"
    }
  }
}
