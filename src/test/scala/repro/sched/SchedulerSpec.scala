package repro.sched

import org.scalatest.funsuite.AnyFunSuite

class SchedulerSpec extends AnyFunSuite {

  test("breadth-first: initial subtasks fill worker 0's bands before worker 1's") {
    val s = new Scheduler(2, 2)
    val a = s.assign(Seq(10L, 11L, 12L, 13L), _ => true, _ => Seq.empty)
    assert(a(10L) == 0 && a(11L) == 1) // worker 0, slots 0/1
    assert(a(12L) == 2 && a(13L) == 3) // worker 1
  }

  test("breadth-first wraps around when subtasks exceed bands") {
    val s = new Scheduler(1, 2)
    val a = s.assign(Seq(1L, 2L, 3L), _ => true, _ => Seq.empty)
    assert(a(1L) == 0 && a(2L) == 1 && a(3L) == 0)
  }

  test("locality-aware: successor follows its heaviest input's band") {
    val s = new Scheduler(2, 2)
    val a = s.assign(
      Seq(1L, 2L, 3L),
      id => id != 3L,
      id => if (id == 3L) Seq((Right(1L): Either[Int, Long], 100L), (Right(2L), 10L)) else Seq.empty)
    assert(a(3L) == a(1L), "subtask 3 should land with its 100-byte input")
  }

  test("locality-aware: materialized inputs contribute their stored band") {
    val s = new Scheduler(2, 2)
    val a = s.assign(
      Seq(5L),
      _ => false,
      _ => Seq((Left(3): Either[Int, Long], 500L)))
    assert(a(5L) == 3)
  }

  test("ties break toward the less-loaded band") {
    val s = new Scheduler(1, 2)
    // 1 → band0, 2 → band1; 3 reads equally from both, band loads equal →
    // min band id wins; 4 then reads equally, band0 more loaded → band1.
    val a = s.assign(
      Seq(1L, 2L, 3L, 4L),
      id => id <= 2L,
      id => if (id >= 3L) Seq((Right(1L): Either[Int, Long], 10L), (Right(2L), 10L)) else Seq.empty)
    assert(Set(a(3L), a(4L)) == Set(0, 1), "equal-weight ties should spread load")
  }

  test("subtask with no resolvable inputs goes to the least-loaded band") {
    val s = new Scheduler(1, 2)
    val a = s.assign(Seq(1L, 2L), id => id == 1L, _ => Seq.empty)
    assert(a(2L) != a(1L))
  }

  test("every subtask receives a valid band") {
    val s = new Scheduler(3, 2)
    val ids = (1L to 20L)
    val a = s.assign(ids, _ % 2 == 0, id => Seq((Right(id - 1): Either[Int, Long], 5L)))
    ids.foreach { id =>
      assert(a.contains(id))
      assert(a(id) >= 0 && a(id) < s.numBands)
    }
  }
}
