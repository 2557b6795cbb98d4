package perfbench

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

/** Spark listener that keeps the job, stage, task and SQL-execution
  * events of a run in memory. Metrics are computed after the run from
  * the event times, so nothing depends on when the listener bus drains.
  *
  * Each job is attributed to the engine layer that submitted it by the
  * innermost engine frame of its call site. AQE submits query stages
  * from a pool thread whose call site holds no engine frame; such jobs
  * take the call site of the SQL execution they belong to
  * (`spark.sql.execution.id`).
  */
final class SparkJobs extends SparkListener {
  import SparkJobs._

  private final class Job(val id: Int, val startMs: Long, val callSite: String, val execId: Option[Long]) {
    var endMs: Long = -1
    var stages: Int = 0
  }

  private val jobs = mutable.LinkedHashMap[Int, Job]()
  private val stageJob = mutable.Map[Int, Int]()
  private val taskEnds = mutable.ArrayBuffer[(Int, Long)]() // (job id, shuffle bytes written)
  private val execSites = mutable.Map[Long, String]()
  private val execStarts = mutable.ArrayBuffer[Long]()
  private var lastEventNs = System.nanoTime()

  private def touch(): Unit = lastEventNs = System.nanoTime()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val site = e.stageInfos.sortBy(-_.stageId).headOption.map(_.details).getOrElse("")
    val exec = Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id"))).map(_.toLong)
    val j = new Job(e.jobId, e.time, site, exec)
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
    jobs(e.jobId) = j
    touch()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
    touch()
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageJob.get(e.stageInfo.stageId).flatMap(jobs.get).foreach(_.stages += 1)
    touch()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val bytes = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    stageJob.get(e.stageId).foreach(j => taskEnds += ((j, bytes)))
    touch()
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        execSites(s.executionId) = s.details
        execStarts += s.time
      case _: SparkListenerSQLExecutionEnd =>
      case _ => return
    }
    touch()
  }

  /** Block until every started job has ended and the bus has been quiet
    * for a short while (or a timeout passes).
    */
  def drain(timeoutMs: Long = 10000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    def settled: Boolean = synchronized {
      jobs.values.forall(_.endMs >= 0) && System.nanoTime() - lastEventNs > 200L * 1000 * 1000
    }
    while (!settled && System.currentTimeMillis() < deadline) Thread.sleep(50)
  }

  /** Spark metrics of the jobs submitted within one or more intervals
    * (epoch ms, inclusive), whose total wall time is `wallS`.
    */
  def metrics(intervals: Seq[(Long, Long)], wallS: Double): Map[String, Double] = synchronized {
    def within(t: Long) = intervals.exists { case (a, b) => t >= a && t <= b }
    val js = jobs.values.filter(j => within(j.startMs)).toVector
    val ids = js.map(_.id).toSet
    val cats = js.map(j => j -> category(j)).toMap
    val tasks = taskEnds.filter(t => ids.contains(t._1))
    val jobS = unionSeconds(js.map(span))
    val out = mutable.LinkedHashMap[String, Double](
      "spark.jobs" -> js.size.toDouble,
      "spark.stages" -> js.map(_.stages).sum.toDouble,
      "spark.tasks" -> tasks.size.toDouble,
      "spark.job_s" -> jobS,
      "spark.driver_s" -> math.max(0.0, wallS - jobS),
      "spark.shuffle_write_mb" -> tasks.map(_._2).sum / MB,
      "spark.sql_execs" -> execStarts.count(within).toDouble,
    )
    Categories.foreach { c =>
      val mine = js.filter(j => cats(j)._1 == c)
      out(s"spark.jobs.$c") = mine.size.toDouble
      out(s"spark.job_s.$c") = unionSeconds(mine.map(span))
    }
    out("spark.jobs_routed") = cats.values.count(_._2).toDouble
    out.toMap
  }

  private def span(j: Job): (Long, Long) = (j.startMs, math.max(j.startMs, j.endMs))

  /** Layer of a job and whether it had to be routed through its SQL
    * execution's call site.
    */
  private def category(j: Job): (String, Boolean) =
    layerOf(j.callSite) match {
      case Some(c) => (c, false)
      case None =>
        j.execId.flatMap(execSites.get).flatMap(layerOf) match {
          case Some(c) => (c, true)
          case None    => ("other", false)
        }
    }
}

object SparkJobs {
  val MB: Double = 1024.0 * 1024.0
  val Categories: Seq[String] = Seq("put", "source", "spill", "action", "other")

  /** Layer named by the innermost engine or benchmark frame of a long
    * call site, if it has one.
    */
  def layerOf(callSite: String): Option[String] =
    callSite.linesIterator.map(_.trim).collectFirst {
      case f if f.startsWith("repro.storage.StorageService") && f.contains("put") => "put"
      case f if f.startsWith("repro.storage.StorageService")                      => "spill"
      case f if f.startsWith("repro.core.Engine") && f.contains("tileSource")     => "source"
      case f if f.startsWith("repro.")                                             => "other"
      case f if f.startsWith("perfbench.")                                         => "action"
    }

  /** Total length in seconds of the union of [start, end] ms intervals. */
  def unionSeconds(spans: Seq[(Long, Long)]): Double = {
    var total = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    spans.sortBy(_._1).foreach { case (a, b) =>
      if (a > curB) {
        if (curB > curA) total += curB - curA
        curA = a; curB = b
      } else curB = math.max(curB, b)
    }
    if (curB > curA) total += curB - curA
    total / 1000.0
  }
}
