package repro.core

import scala.collection.immutable.ListMap

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** One step of a narrow (chunk-local, element-wise) operator pipeline.
  *
  * Steps are kept symbolic so operator-level fusion (paper §V-A,
  * numexpr/JAX analog) can chain the steps of adjacent narrow tasks into
  * one pipe over the chain's input (see `Engine.runSubtask`).
  */
sealed trait NarrowStep
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
  /** Fill nulls in the given columns (pandas `fillna`). */
  final case class FillNaStep(value: Any, cols: Seq[String]) extends NarrowStep
  /** Escape hatch: arbitrary chunk-local function. Graph-fusable but not
    * expression-fusable (the paper's non-numexpr operators). */
  final case class FnStep(label: String, f: DataFrame => DataFrame) extends NarrowStep
}

/** An ordered pipeline of narrow steps applied to one chunk, one Catalyst
  * operator per step.
  *
  * `apply(df, fused = true)` also collapses each run of filters into one
  * conjunctive filter. Everything else is left to Catalyst, whose
  * optimizer already collapses adjacent projections and filters.
  */
final case class NarrowPipe(steps: Vector[NarrowStep]) {
  import NarrowStep._

  def ++(other: NarrowPipe): NarrowPipe = NarrowPipe(steps ++ other.steps)

  private def fuseFilters(ss: Vector[NarrowStep]): Vector[NarrowStep] =
    ss.foldLeft(Vector.empty[NarrowStep]) {
      case (out :+ FilterStep(c0), FilterStep(c)) => out :+ FilterStep(c0 && c)
      case (out, s)                               => out :+ s
    }

  private def applyStep(df: DataFrame, s: NarrowStep): DataFrame = s match {
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
        case other => throw new IllegalArgumentException(s"fillna value: $other")
      }
    case FnStep(_, f) => f(df)
  }

  def apply(df: DataFrame, fused: Boolean): DataFrame = {
    val ss = if (fused) fuseFilters(steps) else steps
    ss.foldLeft(df)(applyStep)
  }
}

object NarrowPipe {
  def one(s: NarrowStep): NarrowPipe = NarrowPipe(Vector(s))
}
