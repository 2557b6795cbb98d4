package repro.fusion

import scala.collection.mutable

/** DAG utilities shared by chunk-graph and subtask-graph planning. Nodes
  * are compared by `equals`/`hashCode`; a graph is given as a node vector
  * plus a predecessor accessor.
  */
object Dag {

  /** Stable FIFO Kahn topological sort (Kahn, CACM 1962): predecessors
    * before consumers, and nodes that become ready together keep their
    * order in `nodes`. Predecessors outside `nodes` are treated as
    * satisfied. Requires `nodes` to be distinct and acyclic.
    */
  def topoSort[N](nodes: Vector[N], preds: N => Seq[N]): Vector[N] = {
    val succs = successors(nodes, preds)
    val indeg = mutable.HashMap[N, Int]()
    nodes.foreach(n => indeg(n) = 0)
    succs.valuesIterator.foreach(_.foreach(s => indeg(s) += 1))
    val queue = mutable.Queue[N](nodes.filter(indeg(_) == 0): _*)
    val out = Vector.newBuilder[N]
    var seen = 0
    while (queue.nonEmpty) {
      val n = queue.dequeue(); out += n; seen += 1
      succs(n).foreach { s => indeg(s) -= 1; if (indeg(s) == 0) queue.enqueue(s) }
    }
    require(seen == nodes.size, s"cycle detected in DAG ($seen of ${nodes.size} ordered)")
    out.result()
  }

  /** Successor index restricted to `nodes`: each node's consumers in
    * `nodes` order, once per edge (a node listing a predecessor twice
    * appears twice). Nodes without consumers map to the empty vector.
    */
  def successors[N](nodes: Vector[N], preds: N => Seq[N]): Map[N, Vector[N]] = {
    val inSet = nodes.toSet
    val m = mutable.HashMap[N, Vector[N]]()
    nodes.foreach(n => preds(n).foreach(p => if (inSet.contains(p)) m(p) = m.getOrElse(p, Vector.empty) :+ n))
    m.toMap.withDefaultValue(Vector.empty)
  }

  /** Dependency levels of a DAG whose `nodes` are in topological order:
    * level 0 holds the nodes with no predecessor in `nodes`, level k + 1
    * those whose deepest predecessor is at level k. Each level keeps the
    * order of `nodes`.
    */
  def levels[N](nodes: Vector[N], preds: N => Seq[N]): Vector[Vector[N]] = {
    val inSet = nodes.toSet
    val level = mutable.HashMap[N, Int]()
    nodes.foreach { n =>
      val ps = preds(n).filter(inSet.contains)
      require(ps.forall(level.contains), s"nodes not in topological order at $n")
      level(n) = ps.map(level).maxOption.fold(0)(_ + 1)
    }
    nodes.groupBy(level).toVector.sortBy(_._1).map(_._2)
  }
}
