package repro.fusion

import org.scalatest.funsuite.AnyFunSuite

/** Tests the shared stable Kahn sort and successor index. */
class DagSpec extends AnyFunSuite {

  test("topoSort is FIFO-stable: ready nodes leave in the order they became ready") {
    // Roots 4 and 1 seed the queue in input order; 3 (ready after 4)
    // leaves before 2 (ready after 1), and 5 waits for both.
    val preds = Map(1 -> Seq(), 2 -> Seq(1), 3 -> Seq(4), 4 -> Seq(), 5 -> Seq(2, 3), 6 -> Seq(5, 1))
    val nodes = Vector(4, 1, 5, 2, 3, 6)
    assert(Dag.topoSort(nodes, preds) == Vector(4, 1, 3, 2, 5, 6))
    val succs = Dag.successors(nodes, preds)
    assert(succs(1) == Vector(2, 6) && succs(4) == Vector(3) && succs(6).isEmpty)
  }

  test("topoSort treats predecessors outside the node set as satisfied") {
    val preds = Map(2 -> Seq(1), 3 -> Seq(2, 1))
    assert(Dag.topoSort(Vector(3, 2), preds) == Vector(2, 3))
    assert(Dag.successors(Vector(3, 2), preds).get(1).isEmpty)
  }

  test("topoSort rejects a cycle") {
    val preds = Map(0 -> Seq(), 1 -> Seq(0, 3), 2 -> Seq(1), 3 -> Seq(2))
    val err = intercept[IllegalArgumentException](Dag.topoSort(Vector(0, 1, 2, 3), preds))
    assert(err.getMessage.contains("cycle detected in DAG (1 of 4 ordered)"))
  }

  test("levels group a topological order by depth, keeping the order within a level") {
    // 5 waits for 2 (level 1) and 3 (level 1); 7 has a predecessor outside.
    val preds = Map(4 -> Seq(), 1 -> Seq(), 3 -> Seq(4), 2 -> Seq(1), 5 -> Seq(2, 3), 6 -> Seq(1), 7 -> Seq(9))
    assert(Dag.levels(Vector(4, 1, 3, 2, 5, 6, 7), preds) ==
      Vector(Vector(4, 1, 7), Vector(3, 2, 6), Vector(5)))
    assertThrows[IllegalArgumentException](Dag.levels(Vector(2, 1), preds))
  }
}
