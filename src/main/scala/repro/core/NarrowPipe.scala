package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** One step of a narrow (chunk-local, element-wise) operator pipeline.
  *
  * Steps are kept symbolic so operator-level fusion (paper §V-A,
  * numexpr/JAX analog) can compile adjacent steps into a single Catalyst
  * projection/filter instead of a chain of intermediate plans.
  */
sealed trait NarrowStep
object NarrowStep {
  /** Row filter (pandas boolean mask). */
  final case class FilterStep(cond: Column) extends NarrowStep
  /** Column projection by name (pandas `df[cols]`). */
  final case class SelectStep(cols: Seq[String]) extends NarrowStep
  /** Add / replace columns (pandas `assign`). Applied left-to-right. */
  final case class WithColsStep(cols: Seq[(String, Column)]) extends NarrowStep
  /** Drop columns (ignores missing). */
  final case class DropStep(cols: Seq[String]) extends NarrowStep
  /** Rename columns (pandas `rename(columns=…)`). */
  final case class RenameStep(mapping: Map[String, String]) extends NarrowStep
  /** Fill nulls in the given columns (pandas `fillna`). */
  final case class FillNaStep(value: Any, cols: Seq[String]) extends NarrowStep
  /** Escape hatch: arbitrary chunk-local function. Graph-fusable but not
    * expression-fusable (the paper's non-numexpr operators). */
  final case class FnStep(label: String, f: DataFrame => DataFrame) extends NarrowStep
}

/** An ordered pipeline of narrow steps applied to one chunk.
  *
  * `apply(df, fused = true)` performs operator-level fusion: runs of
  * filters collapse to one conjunctive filter and runs of column
  * assignments collapse into a single `withColumns` call, so Catalyst
  * analyzes one projection instead of N.
  */
final case class NarrowPipe(steps: Vector[NarrowStep]) {
  import NarrowStep._

  def ++(other: NarrowPipe): NarrowPipe = NarrowPipe(steps ++ other.steps)

  /** Number of plan nodes saved by fusion (for the ablation stats). */
  def fusedSavings: Int = math.max(0, steps.size - fuseRuns(steps).size)

  private def fuseRuns(ss: Vector[NarrowStep]): Vector[NarrowStep] = {
    val out = Vector.newBuilder[NarrowStep]
    var i = 0
    while (i < ss.size) {
      ss(i) match {
        case FilterStep(c0) =>
          var cond = c0; var j = i + 1
          while (j < ss.size && ss(j).isInstanceOf[FilterStep]) {
            cond = cond && ss(j).asInstanceOf[FilterStep].cond; j += 1
          }
          out += FilterStep(cond); i = j
        case WithColsStep(cs0) =>
          // Spark's withColumns resolves every expression against the
          // *input* plan, unlike sequential withColumn where later
          // expressions can see earlier outputs. Merge a run only while
          // the later step neither redefines an earlier name nor
          // (syntactically) references one — conservative: a false
          // positive merely skips fusion, never changes semantics.
          var cs = cs0; var j = i + 1
          var names = cs0.map(_._1).toSet
          var ok = true
          def referencesAny(c: Column, ns: Set[String]): Boolean = {
            val text = c.toString
            ns.exists(n => ("""(?<![A-Za-z0-9_])""" + java.util.regex.Pattern.quote(n) +
              """(?![A-Za-z0-9_])""").r.findFirstIn(text).isDefined)
          }
          while (j < ss.size && ok) {
            ss(j) match {
              case WithColsStep(next)
                  if next.map(_._1).forall(n => !names.contains(n)) &&
                    next.forall { case (_, c) => !referencesAny(c, names) } =>
                cs = cs ++ next; names = names ++ next.map(_._1); j += 1
              case _ => ok = false
            }
          }
          out += WithColsStep(cs); i = j
        case s => out += s; i += 1
      }
    }
    out.result()
  }

  private def applyStep(df: DataFrame, s: NarrowStep): DataFrame = s match {
    case FilterStep(c) => df.filter(c)
    case SelectStep(cols) => df.select(cols.map(col): _*)
    case WithColsStep(cs) => df.withColumns(cs.toMap)
    case DropStep(cs) => df.drop(cs: _*)
    case RenameStep(m) => df.withColumnsRenamed(m)
    case FillNaStep(v, cols) =>
      val targets = if (cols.isEmpty) df.columns.toSeq else cols
      v match {
        case d: Double => df.na.fill(d, targets)
        case l: Long   => df.na.fill(l, targets)
        case i: Int    => df.na.fill(i.toLong, targets)
        case s: String => df.na.fill(s, targets)
        case other => throw new IllegalArgumentException(s"fillna value: $other")
      }
    case FnStep(_, f) => f(df)
  }

  def apply(df: DataFrame, fused: Boolean): DataFrame = {
    val ss = if (fused) fuseRuns(steps) else steps
    ss.foldLeft(df)(applyStep)
  }
}

object NarrowPipe {
  def one(s: NarrowStep): NarrowPipe = NarrowPipe(Vector(s))
}
