package repro

import scala.collection.mutable

import org.apache.spark.{SparkContext, SparkTestAccess}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}

/** The Spark jobs and stages that one block of code ran. */
final class JobProbe private () extends SparkListener {
  private var jobsN = 0
  private val shuffleStages = mutable.ArrayBuffer[String]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobsN += 1 }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    if (SparkTestAccess.writesShuffle(e.stageInfo)) shuffleStages += e.stageInfo.name
  }

  def jobs: Int = synchronized(jobsN)

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
