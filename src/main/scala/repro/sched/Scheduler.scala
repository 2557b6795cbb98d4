package repro.sched

/** Breadth-first + locality-aware subtask scheduler (paper §V-B).
  *
  * A band is the basic unit of subtask scheduling and execution: a
  * (worker, NUMA-slot) pair. Bands are numbered worker-major: band id =
  * worker * bandsPerWorker + slot, so filling band ids in order fills one
  * worker's bands before the next worker's.
  *
  * Initial subtasks (no predecessors, no stored inputs) are assigned
  * breadth-first over bands in worker-major order. Non-initial subtasks
  * are assigned locality-aware: to the band holding the largest share of
  * their input bytes, breaking ties toward the least-loaded band.
  */
final class Scheduler(val workers: Int, val bandsPerWorker: Int) {
  val numBands: Int = workers * bandsPerWorker

  /** Assign a band to every subtask id.
    *
    * @param order     subtask ids in topological order
    * @param isInitial true for subtasks with neither predecessor subtasks
    *                  nor already-materialized inputs
    * @param inputs    input sources of a subtask: `Left(band)` for a
    *                  chunk already in storage, `Right(subtaskId)` for a
    *                  chunk produced by an earlier subtask of this round,
    *                  paired with the (estimated) input bytes
    */
  def assign(
      order: Seq[Long],
      isInitial: Long => Boolean,
      inputs: Long => Seq[(Either[Int, Long], Long)],
  ): Map[Long, Int] = {
    val load = Array.fill(numBands)(0L)
    val out = scala.collection.mutable.LinkedHashMap[Long, Int]()
    var nextInitial = 0
    order.foreach { id =>
      val b =
        if (isInitial(id)) {
          val chosen = nextInitial % numBands
          nextInitial += 1
          chosen
        } else {
          val byBand: Map[Int, Long] = inputs(id)
            .flatMap { case (src, bytes) =>
              val band = src match {
                case Left(b0)   => Some(b0)
                case Right(sid) => out.get(sid)
              }
              band.map(_ -> bytes)
            }
            .groupMapReduce(_._1)(_._2)(_ + _)
          if (byBand.isEmpty) load.zipWithIndex.minBy(_._1)._2
          else {
            val maxBytes = byBand.values.max
            byBand.collect { case (b0, v) if v == maxBytes => b0 }.minBy(load(_))
          }
        }
      load(b) += 1
      out(id) = b
    }
    out.toMap
  }
}
