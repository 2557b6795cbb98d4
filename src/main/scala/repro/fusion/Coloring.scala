package repro.fusion

import scala.collection.mutable

/** Coloring-based graph-level fusion (paper §V-A, Fig 7).
  *
  * Works over any DAG given predecessor/successor accessors. The three
  * steps, verbatim from the paper:
  *
  *  1. initial (root) nodes get fresh colors;
  *  2. forward topological propagation: a node whose predecessors all
  *     share one color inherits it, otherwise it gets a fresh color;
  *  3. reverse separation: walking nodes in forward topological order,
  *     if a node has successors that share its color *and* successors
  *     that don't, the same-colored successors are recolored fresh, and
  *     the new colors re-propagate downstream.
  *
  * Each color is then one subtask. A color class is connected: every
  * color has one origin node, the only node that takes it fresh (a root,
  * a node with mixed predecessors, or a separated node), and every other
  * node of that color inherits it from predecessors that all carry it.
  * Walking predecessors from any member therefore stays inside the class
  * and ends at its origin, which is the class's first member in
  * topological order.
  */
object Coloring {

  /** Color each node; returns node → color id. `nodes` must be unique
    * and topologically ordered (see `Dag.topoSort`); it is walked as
    * given, not sorted.
    */
  def color[N](
      nodes: Vector[N],
      preds: N => Seq[N],
      succs: N => Seq[N],
  ): Map[N, Int] = {
    var next = 0
    def fresh(): Int = { next += 1; next }

    // A root or mixed-predecessor node keeps its fresh color across
    // re-propagations. Fresh colors are unique either way, so this only
    // keeps the ids bounded.
    val origin = mutable.Map[N, Int]()
    val explicit = mutable.Map[N, Int]()

    def forward(): Map[N, Int] = {
      val out = mutable.HashMap[N, Int]()
      nodes.foreach { n =>
        out(n) = explicit.getOrElse(n, preds(n).map(out).distinct match {
          case Seq(c) => c
          case _      => origin.getOrElseUpdate(n, fresh())
        })
      }
      out.toMap
    }

    var colors = forward() // steps 1 + 2
    // Step 3: separate partially-shared successors.
    nodes.foreach { n =>
      val ss = succs(n)
      val same = ss.filter(s => colors(s) == colors(n))
      val diff = ss.exists(s => colors(s) != colors(n))
      if (same.nonEmpty && diff) {
        same.foreach(s => explicit(s) = fresh())
        colors = forward()
      }
    }
    colors
  }

  /** Group nodes into fused subtasks: the color classes, in order of
    * their first member in `nodes`, each keeping its members in `nodes`
    * order. `nodes` must be topologically ordered. A class's first member
    * is its origin, so every input from outside the class precedes it:
    * the group order is a topological order of the group graph.
    */
  def fuse[N](
      nodes: Vector[N],
      preds: N => Seq[N],
      succs: N => Seq[N],
  ): Vector[Vector[N]] = {
    val colors = color(nodes, preds, succs)
    val classes = nodes.groupBy(colors)
    nodes.map(colors).distinct.map(classes)
  }
}
