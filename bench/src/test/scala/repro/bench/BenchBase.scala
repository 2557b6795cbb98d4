package repro.bench

import repro.SparkSpec

/** Shared helpers for the per-table benchmark suites.
  *
  * Benchmarks assert *shape* (who wins, monotonicity, exact simulator
  * cells) rather than absolute times; the printed tables are the
  * paper-vs-measured record that EXPERIMENTS.md carries.
  */
trait BenchBase extends SparkSpec {

  // Benchmarks run thousands of small per-chunk Spark jobs; 64 shuffle
  // partitions per KB-sized chunk job is pure scheduler overhead. The
  // bench JVM is separate from the unit-test JVM, so this only affects
  // benchmark timing realism, not the correctness suites.
  spark.conf.set("spark.sql.shuffle.partitions", "16")

  /** Wall-time one action in seconds (median of `reps`). */
  def time[T](reps: Int = 1)(f: => T): Double = {
    val times = (1 to reps).map { _ =>
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e9
    }
    median(times)
  }

  /** Time the two arms of a comparison fairly: one untimed warm-up run of
    * each arm, then `reps` rounds that alternate which arm runs first, so
    * that neither arm always runs on the warmer JVM. Prints each arm's
    * median wall time with its quartiles, and the median and range of the
    * per-round ratio `b / a`. Returns each arm's wall times in seconds, in
    * round order.
    */
  def compareArms(title: String, reps: Int = 5)(
      a: (String, () => Any),
      b: (String, () => Any),
  ): (Seq[Double], Seq[Double]) = {
    a._2(); b._2()
    val rounds = (0 until reps).map { r =>
      if (r % 2 == 0) { val ta = time()(a._2()); (ta, time()(b._2())) }
      else { val tb = time()(b._2()); (time()(a._2()), tb) }
    }
    val (ta, tb) = rounds.unzip
    def spread(xs: Seq[Double]) = f"${median(xs)}%.3f s [q1 ${quantile(xs, 0.25)}%.3f, q3 ${quantile(xs, 0.75)}%.3f]"
    val ratios = rounds.map { case (x, y) => y / x }
    println(s"$title, $reps alternating rounds after one warm-up each: ${a._1} ${spread(ta)}; " +
      s"${b._1} ${spread(tb)}; ${b._1} / ${a._1} median ${fmt(median(ratios))} " +
      s"[min ${fmt(ratios.min)}, max ${fmt(ratios.max)}]")
    (ta, tb)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** The `q`-quantile of `xs`: its nearest-rank element. */
  private def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.round((s.size - 1) * q).toInt)
  }

  /** Print a markdown table with a marker the harness can grep. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val out = new StringBuilder
    out.append(s"\n==== $title ====\n")
    out.append(header.mkString("| ", " | ", " |")).append('\n')
    out.append(header.map(_ => "---").mkString("| ", " | ", " |")).append('\n')
    rows.foreach(r => out.append(r.mkString("| ", " | ", " |")).append('\n'))
    println(out.result())
  }

  def fmt(d: Double): String = f"$d%.2f"
}
