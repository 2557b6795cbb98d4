package repro

import scala.collection.mutable

import org.apache.spark.{SparkContext, SparkTestAccess}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerStageSubmitted, SparkListenerTaskEnd}

/** The Spark jobs, stages and tasks that one block of code ran. */
final class JobProbe private () extends SparkListener {
  private var jobsN = 0
  private var tasksN = 0
  private var running = 0
  private var maxRunning = 0
  private val shuffleStages = mutable.ArrayBuffer[String]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobsN += 1
    running += 1
    maxRunning = math.max(maxRunning, running)
  }

  // The scheduler posts job events from its one event loop, in the order
  // jobs start and end, so a running count gives the overlap.
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    running -= 1
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    if (SparkTestAccess.writesShuffle(e.stageInfo)) shuffleStages += e.stageInfo.name
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasksN += 1
  }

  def jobs: Int = synchronized(jobsN)

  /** Tasks that ran, in every job. */
  def tasks: Int = synchronized(tasksN)

  /** Most jobs that were running at the same time. */
  def maxConcurrentJobs: Int = synchronized(maxRunning)

  /** Names of the submitted stages that write shuffle output. */
  def shuffleWriteStages: Seq[String] = synchronized(shuffleStages.toSeq)
}

object JobProbe {

  /** Run `body` and return its result with the jobs and stages it ran. */
  def apply[T](sc: SparkContext)(body: => T): (T, JobProbe) = {
    SparkTestAccess.drainListenerBus(sc)
    val probe = new JobProbe
    sc.addSparkListener(probe)
    try {
      val result = body
      SparkTestAccess.drainListenerBus(sc)
      (result, probe)
    } finally sc.removeSparkListener(probe)
  }
}
