package repro.core

import scala.collection.immutable.ListMap

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** One narrow (chunk-local, element-wise) operator step, applied to a
  * chunk as one Catalyst operator.
  *
  * Operator-level fusion (paper §V-A, the numexpr/JAX analog) is
  * Catalyst's: a subtask composes its tasks' steps lazily into one plan
  * (see `Engine.runSubtask`), whose adjacent projections and filters
  * Catalyst's optimizer collapses and whole-stage codegen compiles into
  * one loop.
  */
sealed trait NarrowStep {
  import NarrowStep._

  def apply(df: DataFrame): DataFrame = this match {
    case FilterStep(c) => df.filter(c)
    case SelectStep(cols) => df.select(cols.map(col): _*)
    // Spark's `withColumns(Map)` projects the map's entries in its
    // iteration order, which a `ListMap` keeps.
    case WithColsStep(cs) => df.withColumns(ListMap(cs: _*))
    case DropStep(cs) => df.drop(cs: _*)
    case RenameStep(m) => df.withColumnsRenamed(m)
    case FillNaStep(v, cols) =>
      val targets = if (cols.isEmpty) df.columns.toSeq else cols
      v match {
        case d: Double => df.na.fill(d, targets)
        case l: Long   => df.na.fill(l, targets)
        case i: Int    => df.na.fill(i.toLong, targets)
        case s: String => df.na.fill(s, targets)
      }
    case FnStep(_, f) => f(df)
  }
}

object NarrowStep {
  /** Row filter (pandas boolean mask). */
  final case class FilterStep(cond: Column) extends NarrowStep
  /** Column projection by name (pandas `df[cols]`). */
  final case class SelectStep(cols: Seq[String]) extends NarrowStep
  /** Add / replace columns (pandas `assign`), as one projection: every
    * expression resolves against the step's input, not against the
    * step's earlier entries. New columns are appended in the given order;
    * a replaced column keeps its place.
    */
  final case class WithColsStep(cols: Seq[(String, Column)]) extends NarrowStep
  /** Drop columns (ignores missing). */
  final case class DropStep(cols: Seq[String]) extends NarrowStep
  /** Rename columns (pandas `rename(columns=…)`). */
  final case class RenameStep(mapping: Map[String, String]) extends NarrowStep
  /** Fill nulls in the given columns (pandas `fillna`) with a Double,
    * Long, Int or String value.
    */
  final case class FillNaStep(value: Any, cols: Seq[String]) extends NarrowStep {
    require(value match { case _: Double | _: Long | _: Int | _: String => true; case _ => false },
      s"fillna value $value is not a Double, Long, Int or String")
  }
  /** Escape hatch: arbitrary chunk-local function. Graph-fusable; Catalyst
    * fuses it with its neighbours only as far as the plan `f` builds
    * allows (the paper's non-numexpr operators).
    */
  final case class FnStep(label: String, f: DataFrame => DataFrame) extends NarrowStep
}
