package repro.fusion

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
  * Adjacent nodes with equal colors are then merged into one subtask.
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

    // Stable fresh colors: roots and mixed-predecessor nodes keep the same
    // id across re-propagations so step 3 converges deterministically.
    val rootColor = scala.collection.mutable.Map[N, Int]()
    val mixedColor = scala.collection.mutable.Map[N, Int]()
    val explicit = scala.collection.mutable.Map[N, Int]()

    def forward(): Map[N, Int] = {
      val out = scala.collection.mutable.LinkedHashMap[N, Int]()
      nodes.foreach { n =>
        val c = explicit.get(n) match {
          case Some(e) => e
          case None =>
            val ps = preds(n)
            if (ps.isEmpty) rootColor.getOrElseUpdate(n, fresh())
            else {
              val cs = ps.map(out).distinct
              if (cs.size == 1) cs.head
              else mixedColor.getOrElseUpdate(n, fresh())
            }
        }
        out(n) = c
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

  /** Group nodes into fused subtasks: maximal weakly-connected components
    * of equal color. `nodes` must be topologically ordered. Returns groups
    * in order of their first member in `nodes`, each group keeping its
    * members in `nodes` order. Every color has one origin node (a root,
    * mixed-predecessor or separated node) and every other node of that
    * color has all its predecessors inside its group, so a group's
    * external inputs all precede its first member: the group order is a
    * topological order of the group graph.
    */
  def fuse[N](
      nodes: Vector[N],
      preds: N => Seq[N],
      succs: N => Seq[N],
  ): Vector[Vector[N]] = {
    val colors = color(nodes, preds, succs)
    val group = scala.collection.mutable.Map[N, Int]()
    var nGroups = 0
    // Union along edges whose endpoints share a color, walking topo order.
    nodes.foreach { n =>
      val samePreds = preds(n).filter(p => colors(p) == colors(n) && group.contains(p))
      if (samePreds.nonEmpty) group(n) = group(samePreds.head)
      else { group(n) = nGroups; nGroups += 1 }
      // Merge if two same-color predecessors landed in different groups
      // (diamond within one color): remap the later group.
      val gids = preds(n).filter(p => colors(p) == colors(n)).flatMap(group.get).distinct
      if (gids.size > 1) {
        val target = gids.min
        val others = gids.toSet - target
        group.keys.toVector.foreach(k => if (others.contains(group(k))) group(k) = target)
        group(n) = target
      }
    }
    val members = nodes.groupBy(group)
    nodes.map(group).distinct.map(members)
  }
}
