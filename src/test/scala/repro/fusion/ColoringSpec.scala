package repro.fusion

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Tests the 3-step coloring algorithm on the paper's Fig 7 example and
  * on random DAGs (invariants).
  */
class ColoringSpec extends AnyFunSuite {

  /** Small adjacency-list DAG fixture: node -> predecessors. */
  private def graph(preds: Map[Int, Seq[Int]]): (Vector[Int], Int => Seq[Int], Int => Seq[Int]) = {
    val nodes = preds.keys.toVector.sorted
    val succs = nodes.map(n => n -> nodes.filter(m => preds(m).contains(n))).toMap
    (nodes, (n: Int) => preds(n), (n: Int) => succs(n))
  }

  // Paper Fig 7 (reconstructed from the §V-A narrative):
  //   1 → 3 → 4,  1 → 5,  2 → 5,  2 → 7,  5 → 6,  7 → 8
  private val fig7 = Map(
    1 -> Seq.empty[Int], 2 -> Seq.empty[Int],
    3 -> Seq(1), 4 -> Seq(3), 5 -> Seq(1, 2), 6 -> Seq(5), 7 -> Seq(2), 8 -> Seq(7))

  test("fig 7: operator 1 is separated from 3 and 5") {
    val (nodes, p, s) = graph(fig7)
    val colors = Coloring.color(nodes, p, s)
    assert(colors(1) != colors(3), "step 3 must split 1 from 3")
    assert(colors(1) != colors(5), "mixed-pred node 5 must not share 1's color")
  }

  test("fig 7: operator 2 is separated from 7 (and from 5)") {
    val (nodes, p, s) = graph(fig7)
    val colors = Coloring.color(nodes, p, s)
    assert(colors(2) != colors(7))
    assert(colors(2) != colors(5))
  }

  test("fig 7: straight-line successors keep their chain fused (3-4, 5-6, 7-8)") {
    val (nodes, p, s) = graph(fig7)
    val colors = Coloring.color(nodes, p, s)
    assert(colors(3) == colors(4), "recolored chains propagate (C6 to operator 4)")
    assert(colors(5) == colors(6))
    assert(colors(7) == colors(8))
  }

  test("fig 7: fuse produces the expected groups") {
    val (nodes, p, s) = graph(fig7)
    val groups = Coloring.fuse(nodes, p, s).map(_.toSet)
    assert(groups.contains(Set(1)))
    assert(groups.contains(Set(2)))
    assert(groups.contains(Set(3, 4)))
    assert(groups.contains(Set(5, 6)))
    assert(groups.contains(Set(7, 8)))
  }

  test("pure chain fuses into one subtask") {
    val chain = Map(1 -> Seq.empty[Int], 2 -> Seq(1), 3 -> Seq(2), 4 -> Seq(3))
    val (nodes, p, s) = graph(chain)
    val groups = Coloring.fuse(nodes, p, s)
    assert(groups == Vector(Vector(1, 2, 3, 4)))
  }

  test("two independent roots stay separate") {
    val g = Map(1 -> Seq.empty[Int], 2 -> Seq.empty[Int])
    val (nodes, p, s) = graph(g)
    val colors = Coloring.color(nodes, p, s)
    assert(colors(1) != colors(2))
  }

  test("reduce node with differently-colored predecessors gets a new color") {
    val g = Map(1 -> Seq.empty[Int], 2 -> Seq.empty[Int], 3 -> Seq(1, 2))
    val (nodes, p, s) = graph(g)
    val colors = Coloring.color(nodes, p, s)
    assert(colors(3) != colors(1) && colors(3) != colors(2))
  }

  test("map fan-out: source with several same-colored consumers keeps them together") {
    // source 1 feeds 2, 3, 4 (all inherit 1's color; no external
    // consumers) — models a one-chunk shuffle: a map read by every reducer.
    val g = Map(1 -> Seq.empty[Int], 2 -> Seq(1), 3 -> Seq(1), 4 -> Seq(1))
    val (nodes, p, s) = graph(g)
    val groups = Coloring.fuse(nodes, p, s).map(_.toSet)
    assert(groups == Vector(Set(1, 2, 3, 4)))
  }

  test("diamond within one color fuses into one group") {
    val g = Map(1 -> Seq.empty[Int], 2 -> Seq(1), 3 -> Seq(1), 4 -> Seq(2, 3))
    val (nodes, p, s) = graph(g)
    val groups = Coloring.fuse(nodes, p, s).map(_.toSet)
    assert(groups == Vector(Set(1, 2, 3, 4)))
  }

  /** A DAG on nodes 1..n whose node i draws its predecessors from 1 until i. */
  private def dagGen(maxNodes: Int)(predsOf: Int => Gen[Seq[Int]]): Gen[Map[Int, Seq[Int]]] =
    for {
      n <- Gen.choose(1, maxNodes)
      edges <- Gen.sequence[Vector[Seq[Int]], Seq[Int]]((1 to n).toVector.map { i =>
        if (i == 1) Gen.const(Seq.empty[Int]) else predsOf(i)
      })
    } yield (1 to n).map(i => i -> edges(i - 1)).toMap

  /** Small dense DAGs (any subset of earlier nodes as predecessors), and
    * larger sparse ones (0–3 predecessors each), whose long chains,
    * fan-outs and separations run through many nodes.
    */
  private def randomDagGen: Gen[Map[Int, Seq[Int]]] = Gen.oneOf(
    dagGen(14)(i => Gen.someOf(1 until i).map(_.toSeq)),
    dagGen(60)(i => Gen.choose(0, math.min(3, i - 1)).flatMap(k => Gen.pick(k, 1 until i)).map(_.toSeq)),
  )

  test("property: every node gets a color; groups partition the DAG") {
    val prop = Prop.forAll(randomDagGen) { g =>
      val (nodes, p, s) = graph(g)
      val colors = Coloring.color(nodes, p, s)
      val groups = Coloring.fuse(nodes, p, s)
      colors.size == nodes.size &&
      groups.flatten.sorted == nodes.sorted &&
      groups.forall(grp => grp.map(colors).distinct.size == 1)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }

  test("property: no group member has a same-colored neighbor outside its group") {
    val prop = Prop.forAll(randomDagGen) { g =>
      val (nodes, p, s) = graph(g)
      val colors = Coloring.color(nodes, p, s)
      val groups = Coloring.fuse(nodes, p, s)
      val groupOf = groups.zipWithIndex.flatMap { case (grp, i) => grp.map(_ -> i) }.toMap
      nodes.forall { n =>
        (p(n) ++ s(n)).forall { m =>
          colors(m) != colors(n) || groupOf(m) == groupOf(n)
        }
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }

  test("property: groups come in topological order, each keeping input order") {
    val prop = Prop.forAll(randomDagGen) { g =>
      val (nodes, p, s) = graph(g)
      val groups = Coloring.fuse(nodes, p, s)
      val groupOf = groups.zipWithIndex.flatMap { case (grp, i) => grp.map(_ -> i) }.toMap
      val pos = nodes.zipWithIndex.toMap
      nodes.forall(n => p(n).forall(m => groupOf(m) <= groupOf(n))) &&
      groups.forall(grp => grp.map(pos) == grp.map(pos).sorted)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }

  // `fuse` returns the color classes as they are, so this property is the
  // check that every color class is connected, i.e. one subtask.
  test("property: groups are weakly connected") {
    val prop = Prop.forAll(randomDagGen) { g =>
      val (nodes, p, s) = graph(g)
      val groups = Coloring.fuse(nodes, p, s)
      groups.forall { grp =>
        val set = grp.toSet
        if (grp.size <= 1) true
        else {
          // BFS over undirected edges restricted to the group.
          val seen = scala.collection.mutable.Set(grp.head)
          val queue = scala.collection.mutable.Queue(grp.head)
          while (queue.nonEmpty) {
            val n = queue.dequeue()
            (p(n) ++ s(n)).filter(set.contains).foreach { m =>
              if (!seen.contains(m)) { seen += m; queue.enqueue(m) }
            }
          }
          seen.size == grp.size
        }
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }
}
