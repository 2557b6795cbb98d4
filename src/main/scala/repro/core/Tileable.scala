package repro.core

import org.apache.spark.sql.{DataFrame, RelationalGroupedDataset}

/** Operators of the tileable graph (logical plan, paper §III-C).
  *
  * Each user-facing API call becomes one of these nodes; the tiling
  * engine later expands each node into chunk tasks in row order (`tile`
  * method analog; a chunk's row index is its position in that list, and
  * a row's position within a chunk is its position in the chunk's one
  * partition), possibly pausing for execution (dynamic tiling, §IV).
  */
sealed trait TileableOp

object TileableOp {
  /** A named input table (the ReadParquet analog). */
  final case class SourceOp(sourceName: String, df: DataFrame) extends TileableOp

  /** A narrow (chunk-local) operator: `f` maps each chunk to its output
    * chunk. Catalyst fuses the `f`s a subtask composes (§V-A operator-level
    * fusion; see `Engine.runSubtask`).
    */
  final case class NarrowOp(label: String, f: DataFrame => DataFrame) extends TileableOp

  /** groupby(keys).agg(specs) — the GroupbyAgg operator. */
  final case class GroupAggOp(keys: Seq[String], aggs: Seq[AggSpec]) extends TileableOp

  /** pandas merge. `how` ∈ inner, left, leftsemi, leftanti, cross. */
  final case class MergeOp(on: Seq[String], how: String) extends TileableOp

  /** Positional row slice [start, start+count) (pandas iloc and head). */
  final case class ILocOp(start: Long, count: Long) extends TileableOp

  /** Global sort by columns (pandas sort_values). */
  final case class SortOp(by: Seq[String], ascending: Seq[Boolean]) extends TileableOp

  /** Drop duplicate rows by subset (empty = all user columns). */
  final case class DistinctOp(subset: Seq[String]) extends TileableOp

  /** Row-wise concatenation of the inputs (pandas concat, ignore_index). */
  final case class ConcatOp() extends TileableOp

  /** Pivot table: one output chunk built from all input chunks
    * (non-relational reshape; paper §II-A).
    */
  final case class PivotOp(index: String, columns: String, values: String, aggfunc: String)
      extends TileableOp {
    /** `aggfunc` over the pivoted groups; an unknown name fails here, when
      * the operator is built.
      */
    val aggregate: RelationalGroupedDataset => DataFrame = aggfunc match {
      case "sum"   => _.sum(values)
      case "mean"  => _.avg(values)
      case "count" => _.count()
      case "min"   => _.min(values)
      case "max"   => _.max(values)
      case other   =>
        throw new IllegalArgumentException(s"pivot_table aggfunc '$other' is not one of sum, mean, count, min, max")
    }
  }
}

/** A node of the tileable graph: operator + upstream tileables. */
final class Tileable(val op: TileableOp, val inputs: Vector[Tileable]) {
  override def toString: String = s"Tileable($op)"
}
