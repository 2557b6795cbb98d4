package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.Engine

/** Runs one workload of the benchmark and prints its metrics.
  *
  * Load model: one client in a closed loop. A pass submits each
  * operation of the workload after the previous result was collected.
  * The first pass runs on a fresh engine (cold); the following passes
  * reuse it (warm), keeping earlier passes' chunks stored.
  *
  * `--trace 0` prints the end-to-end metrics. `--trace 1` registers a
  * Spark listener, samples the driver thread and replays planning on
  * every query's chunk graph; it prints the per-layer metrics.
  *
  * Usage: perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, work: String)

  /** Session settings shared with the test suites' `SparkSpec`. */
  val ShufflePartitions = 64
  /** Warm passes every run makes, whatever `--seconds` says; `mem_mb`
    * is the peak over the cold pass and these.
    */
  val MinWarm = 2
  val MaxWarm = 50
  /** Input generations timed in set-up; `setup_s` takes their median. */
  val SetupRounds = 3
  val SamplePeriodMs = 5L

  def parse(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1", need("work"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val wl = Workloads(args.workload)
    val code =
      try run(args, wl)
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else s(math.min(s.size - 1, math.ceil(p * s.size).toInt - 1).max(0))
  }

  def run(args: Args, wl: Workload): Int = {
    val nproc = Runtime.getRuntime.availableProcessors()
    val work = Paths.get(args.work).toAbsolutePath
    Files.createDirectories(work)
    val spark = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()
    try measure(args, wl, spark, nproc)
    finally spark.stop()
  }

  private final class Pass(val kind: String, val traced: Boolean) {
    var wallS = 0.0
    var memMb = 0.0
    val ops = mutable.ArrayBuffer[OpRec]()
  }

  private def measure(args: Args, wl: Workload, spark: SparkSession, nproc: Int): Int = {
    val sc = spark.sparkContext
    sc.setLogLevel("ERROR")
    val sessionS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0

    val p0 = System.nanoTime()
    wl.prepare(spark, args.seed)
    Console.err.println(f"perfbench: prepare ${(System.nanoTime() - p0) / 1e9}%.3f s")
    val genS = (1 to SetupRounds).map { i =>
      if (i > 1) wl.release()
      val t0 = System.nanoTime()
      wl.generate(spark)
      (System.nanoTime() - t0) / 1e9
    }
    val setupS = sessionS + median(genS)
    val inputRdds = sc.getRDDStorageInfo.map(_.id).toSet
    val guards = wl.guard(spark)

    val header = Seq(
      "workload" -> wl.name, "seed" -> args.seed, "seconds" -> args.seconds, "trace" -> args.trace) ++
      wl.settings ++ guards ++ Seq(
      "spark_version" -> spark.version, "master" -> sc.master, "nproc" -> nproc,
      "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "load" -> "closed loop, 1 client")
    header.foreach { case (k, v) => println(s"# $k = $v") }

    val jobs = new SparkJobs
    val sampler = if (args.trace) Some(new Sampler(Thread.currentThread(), SamplePeriodMs)) else None
    sampler.foreach(_.start())
    val engine = wl.engine(spark)
    val meter = new Meter(engine, sampler)
    val ops = wl.ops(engine)
    val passes = mutable.ArrayBuffer[Pass]()
    var attempted, failed = 0
    val reference = mutable.Map[String, Result]()

    def runPass(kind: String, traced: Boolean): Pass = {
      val p = new Pass(kind, traced)
      if (traced) sc.addSparkListener(jobs)
      val t0 = System.nanoTime()
      val results = ops.map { op =>
        val r = new OpRec(op.name)
        meter.rec = r
        val before = Counters.engine(engine)
        sampler.foreach(s => if (traced) s.target = r.prof)
        r.startMs = System.currentTimeMillis()
        val o0 = System.nanoTime()
        val res =
          try Some(op.run(meter))
          catch { case e: Exception => Console.err.println(s"${op.name} failed: $e"); r.failed = true; None }
        r.wallS = (System.nanoTime() - o0) / 1e9
        r.endMs = System.currentTimeMillis()
        Console.err.println(f"perfbench: $kind ${op.name} ${r.wallS}%.3f s")
        sampler.foreach(_.target = null)
        Counters.engine(engine).foreach { case (k, v) => r.counts(k) = v - before(k) }
        r.counts("storage.est_mem_mb") = engine.storage.stats.memBytes / SparkJobs.MB
        if (traced) r.counts("storage.actual_mem_mb") = Counters.chunkMemMb(sc, inputRdds)
        p.ops += r
        r -> res
      }
      p.wallS = (System.nanoTime() - t0) / 1e9
      p.memMb = Counters.cachedMemMb(sc)

      // Outside the timed region: check every output, replay planning.
      val c0 = System.nanoTime()
      results.foreach { case (r, res) =>
        attempted += 1
        val ok = res.exists { out =>
          try {
            reference.get(r.name) match {
              case Some(ref) => out.verifyAgainst(ref)
              case None if kind == "cold" => out.verify(); reference(r.name) = out
              case None => throw new IllegalStateException("no verified cold result to compare with")
            }
            true
          } catch { case e: Exception => Console.err.println(s"${r.name} ($kind) check failed: $e"); false }
        }
        if (!ok) { failed += 1; r.failed = true }
        if (traced && r.plan.isEmpty && r.chunks.nonEmpty)
          r.plan = Some(Planner.plan(engine, r.chunks, _ => false))
      }
      if (traced) { jobs.drain(); sc.removeSparkListener(jobs) }
      Console.err.println(f"perfbench: $kind checks ${(System.nanoTime() - c0) / 1e9}%.3f s")
      p
    }

    val measureStart = System.nanoTime()
    val cold = runPass("cold", args.trace)
    passes += cold
    if (!cold.ops.exists(_.failed)) wl.coldGuard(cold.ops.toSeq)
    var warm = 0
    def elapsed = (System.nanoTime() - measureStart) / 1e9
    while (warm < MaxWarm && (warm < MinWarm + (if (args.trace) 1 else 0) || elapsed < args.seconds)) {
      // The traced run alternates traced and untraced warm passes to
      // measure the tracing overhead.
      passes += runPass("warm", args.trace && warm % 2 == 0)
      warm += 1
    }
    sampler.foreach(_.shutdown())

    val warmPasses = passes.filter(_.kind == "warm").toSeq
    val e2e = mutable.LinkedHashMap[String, (Double, String)](
      "setup_s" -> (setupS, "s"),
      "cold_s" -> (cold.wallS, "s"),
      "warm_s" -> (median(warmPasses.filterNot(_.traced).map(_.wallS)), "s"),
      "mem_mb" -> ((cold +: warmPasses.take(MinWarm)).map(_.memMb).max, "MB"),
    )
    val errorRate = failed.toDouble / math.max(1, attempted)

    println(f"# setup: session ${sessionS}%.3f s, input generations ${genS.map(g => f"$g%.3f").mkString(", ")} s")
    passes.zipWithIndex.foreach { case (p, i) =>
      println(f"# pass $i ${p.kind}${if (p.traced) " traced" else ""}: wall ${p.wallS}%.3f s, cached memory ${p.memMb}%.3f MB, " +
        p.ops.map(r => f"${r.name} ${r.wallS}%.3f").mkString("ops [", ", ", "]"))
    }
    println(f"# error_rate = $errorRate%.4f fraction ($failed failed of $attempted operations)")

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) e2e.toSeq.map { case (k, (v, u)) => (k, v, u) }
      else {
        val traced = passes.filter(_.traced).toSeq
        val perPass = traced.map(p => p -> layerMetrics(p.ops.toSeq, p.wallS, jobs))
        perPass.foreach { case (p, m) =>
          println(s"# layers ${p.kind} pass: " + m.map { case (k, v) => f"$k=$v%.4f" }.mkString(" "))
          if (p.ops.size > 1) p.ops.foreach { r =>
            val q = layerMetrics(Seq(r), r.wallS, jobs)
            println(s"#   ${r.name}: " + q.map { case (k, v) => f"$k=$v%.4f" }.mkString(" "))
          }
        }
        val tracedWarm = perPass.filter(_._1.kind == "warm")
        tracedWarm.flatMap(_._1.ops).filter(_.name == "Q21").lastOption.foreach { r =>
          val m = layerMetrics(Seq(r), r.wallS, jobs)
          val outside = r.prof.filterNot(_._1.endsWith(".wait"))
          val n = math.max(1L, outside.values.sum)
          println(f"# Q21 warm: wall ${r.wallS}%.3f s, outside Spark jobs ${m("spark.driver_s")}%.3f s: " +
            Sampler.Keys.filterNot(_.endsWith(".wait")).map(k => f"$k ${100.0 * outside.getOrElse(k, 0L) / n}%.1f%%").mkString(", "))
        }
        val warmTraced = median(tracedWarm.map(_._1.wallS))
        val warmPlain = median(warmPasses.filterNot(_.traced).map(_.wallS))
        println(f"# tracing overhead = ${warmTraced / warmPlain}%.4f (traced warm_s $warmTraced%.3f s / untraced warm_s $warmPlain%.3f s)")
        val keys = tracedWarm.head._2.keys.toSeq
        keys.map(k => (k, median(tracedWarm.map(_._2(k))), unitOf(k))) :+
          (("trace.overhead", warmTraced / warmPlain, unitOf("trace.overhead")))
      }

    val body = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
    0
  }

  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "0.0" else v.toString

  def unitOf(k: String): String =
    if (k.endsWith("_s") || k.contains("_s.")) "s"
    else if (k.endsWith("_ms")) "ms"
    else if (k.endsWith("_mb")) "MB"
    else if (k.endsWith("_ratio") || k == "core.parallelism" || k == "trace.overhead") "ratio"
    else if (k.endsWith("_frac") || k.startsWith("prof.")) "fraction"
    else "count"

  /** Per-layer metrics of a pass or of one operation. */
  def layerMetrics(ops: Seq[OpRec], wallS: Double, jobs: SparkJobs): mutable.LinkedHashMap[String, Double] = {
    val m = mutable.LinkedHashMap[String, Double]()
    def secs(k: String) = ops.map(_.secs(k)).sum
    val tileExec = ops.flatMap(_.tileTraces).map(_.wallMs).sum / 1000
    val subtask = ops.flatMap(_.execTraces).map(_.wallMs).sum / 1000
    val all = ops.flatMap(o => o.tileTraces ++ o.execTraces)
    m("core.build_s") = secs("build")
    m("core.tile_s") = secs("tile")
    m("core.tile_exec_s") = tileExec
    m("core.tile_self_s") = secs("tile") - tileExec
    m("core.execute_s") = secs("execute")
    m("core.subtask_s") = subtask
    m("core.execute_self_s") = secs("execute") - subtask
    m("core.parallelism") = {
      val d = secs("tile") + secs("execute")
      if (d > 0) (tileExec + subtask) / d else 0.0
    }
    m("core.subtask_p50_ms") = percentile(all.map(_.wallMs), 0.5)
    m("core.subtask_p90_ms") = percentile(all.map(_.wallMs), 0.9)
    m("core.subtasks") = all.size.toDouble
    m("core.collect_s") = secs("collect")
    m("core.action_s") = secs("action")
    m("core.covered_frac") =
      Seq("build", "tile", "execute", "collect", "action").map(secs).sum / math.max(1e-9, wallS)
    Seq("core.tile_switches", "core.tree_reduces", "core.shuffle_reduces", "core.broadcast_merges",
      "core.shuffle_merges", "core.narrow_steps_fused").foreach(k => m(k) = ops.map(_.counts(k)).sum)
    val plans = ops.flatMap(_.plan)
    m("fusion.build_ms") = plans.map(_.buildMs).sum
    m("fusion.chunk_tasks") = plans.map(_.chunkTasks).sum.toDouble
    m("fusion.tasks_fused_away") = plans.map(p => p.chunkTasks - p.subtasks).sum.toDouble
    m("sched.assign_ms") = plans.map(_.assignMs).sum
    m("sched.remote_read_frac") = {
      val in = all.map(_.inputBytes).sum
      if (in > 0) all.map(_.remoteBytes).sum.toDouble / in
      else if (plans.nonEmpty) median(plans.map(_.remoteFrac)) else 0.0
    }
    Seq("storage.puts", "storage.gets", "storage.put_mb", "storage.spills", "storage.spilled_mb")
      .foreach(k => m(k) = ops.map(_.counts(k)).sum)
    val last = ops.last.counts
    m("storage.est_mem_mb") = last("storage.est_mem_mb")
    m("storage.actual_mem_mb") = last("storage.actual_mem_mb")
    m("storage.size_est_ratio") =
      if (last("storage.actual_mem_mb") > 0) last("storage.est_mem_mb") / last("storage.actual_mem_mb") else 0.0
    m ++= jobs.metrics(ops.map(o => (o.startMs, o.endMs)), wallS).toSeq.sortBy(_._1)
    val samples = ops.flatMap(_.prof).groupMapReduce(_._1)(_._2)(_ + _)
    val n = math.max(1L, samples.values.sum)
    Sampler.Keys.foreach(k => m(s"prof.$k") = samples.getOrElse(k, 0L).toDouble / n)
    m
  }
}
