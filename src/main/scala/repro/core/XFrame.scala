package repro.core

import scala.collection.immutable.ListMap

import org.apache.spark.sql.{Column, DataFrame, DataFrameNaFunctions}
import org.apache.spark.sql.functions.col

import repro.core.TileableOp._

/** The user-facing distributed dataframe: a drop-in-style, pandas-like
  * lazy API over the tiling engine (paper §III-B).
  *
  * Like Xorbits, evaluation is deferred: operators only build the
  * tileable graph; `toDF`, `count`, and `show` trigger tiling +
  * execution (the paper's `__repr__`-driven deferred evaluation).
  */
final class XFrame private[repro] (val engine: Engine, val tileable: Tileable) {

  private def derive(op: TileableOp, ins: Vector[Tileable]): XFrame =
    new XFrame(engine, new Tileable(op, ins))

  /** Boolean-mask row filter: `df[df["col"] < 1]`. */
  def filter(cond: Column): XFrame = mapChunks("Filter")(_.filter(cond))

  /** Column projection: `df[["a","b"]]`. */
  def select(cols: String*): XFrame = mapChunks("Select")(_.select(cols.map(col): _*))

  /** Add or replace a column: `df.assign(...)` / `df["c"] = …`. */
  def withColumn(name: String, c: Column): XFrame = mapChunks("WithColumn")(_.withColumn(name, c))

  /** Add or replace several columns as one projection: every expression
    * resolves against this frame, not against the earlier entries.
    */
  def withColumns(cols: (String, Column)*): XFrame =
    // Spark's `withColumns(Map)` projects the map's entries in its
    // iteration order, which a `ListMap` keeps.
    mapChunks("WithColumns")(_.withColumns(ListMap(cols: _*)))

  /** Drop columns (ignores missing ones). */
  def drop(cols: String*): XFrame = mapChunks("Drop")(_.drop(cols: _*))

  def rename(mapping: (String, String)*): XFrame = mapChunks("Rename")(_.withColumnsRenamed(mapping.toMap))

  /** pandas fillna over the given columns (all columns if empty), with a
    * Double, Long, Int or String value.
    */
  def fillna(value: Any, cols: String*): XFrame = {
    val fill: (DataFrameNaFunctions, Seq[String]) => DataFrame = value match {
      case d: Double => _.fill(d, _)
      case l: Long   => _.fill(l, _)
      case i: Int    => _.fill(i.toLong, _)
      case s: String => _.fill(s, _)
      case _ => throw new IllegalArgumentException(s"fillna value $value is not a Double, Long, Int or String")
    }
    mapChunks("FillNa")(df => fill(df.na, if (cols.isEmpty) df.columns.toSeq else cols))
  }

  /** A narrow operator: `f` applied to each chunk on its own (every
    * method above is one). It keeps its chunk's positions: `iloc` and
    * `head` read `f`'s output rows in the order it emits them, so `f`
    * should keep the row order of its input (projections, filters and
    * column maps do).
    */
  def mapChunks(label: String)(f: DataFrame => DataFrame): XFrame =
    derive(NarrowOp(label, f), Vector(tileable))

  def groupby(keys: String*): XGroupBy = new XGroupBy(this, keys)

  /** pandas merge on one or more key columns; `how` ∈ inner, left,
    * leftsemi, leftanti (`crossMerge` for a cross join). Other joins would
    * emit a broadcast right side's unmatched rows once per left chunk, so
    * they are rejected.
    */
  def merge(right: XFrame, on: Seq[String], how: String = "inner"): XFrame = {
    require(right.engine eq engine, "cannot merge frames from different engines")
    require(on.nonEmpty, "merge needs at least one key column in `on`; use crossMerge for a cross join")
    require(XFrame.MergeHows.contains(how),
      s"merge how '$how' is not one of ${XFrame.MergeHows.mkString(", ")}")
    derive(MergeOp(on, how), Vector(tileable, right.tileable))
  }

  /** Cartesian product with a (small) frame — scalar-subquery helper. */
  def crossMerge(right: XFrame): XFrame = {
    require(right.engine eq engine, "cannot merge frames from different engines")
    derive(MergeOp(Seq.empty, "cross"), Vector(tileable, right.tileable))
  }

  /** Positional single-row lookup (pandas `df.iloc[i]`); `i` counts from
    * the first row, so it may not be negative.
    */
  def iloc(i: Long): XFrame = {
    require(i >= 0, s"iloc($i): negative positions are not supported")
    derive(ILocOp(i, 1), Vector(tileable))
  }

  /** Positional row slice [start, end) (pandas `df.iloc[start:end]`), with
    * positions counted from the first row.
    */
  def ilocRange(start: Long, end: Long): XFrame = {
    require(start >= 0 && end >= 0, s"ilocRange($start, $end): negative positions are not supported")
    derive(ILocOp(start, math.max(0, end - start)), Vector(tileable))
  }

  /** First `n` rows (pandas `df.head(n)`, for `n` ≥ 0). */
  def head(n: Long): XFrame = {
    require(n >= 0, s"head($n): a negative row count is not supported")
    derive(ILocOp(0, n), Vector(tileable))
  }

  def sortValues(by: Seq[String], ascending: Seq[Boolean]): XFrame = {
    require(by.size == ascending.size,
      s"sortValues needs one `ascending` flag per `by` column: by = ${by.mkString("[", ", ", "]")}, " +
        s"ascending = ${ascending.mkString("[", ", ", "]")}")
    derive(SortOp(by, ascending), Vector(tileable))
  }
  def sortValues(by: String*): XFrame = sortValues(by, Seq.fill(by.size)(true))

  /** pandas drop_duplicates (subset empty = all columns). */
  def dropDuplicates(subset: String*): XFrame = derive(DistinctOp(subset), Vector(tileable))

  /** pandas concat along rows (ignore_index). */
  def concat(other: XFrame): XFrame = {
    require(other.engine eq engine, "cannot concat frames from different engines")
    derive(ConcatOp(), Vector(tileable, other.tileable))
  }

  /** pandas pivot_table with a single index/columns/values triple. */
  def pivotTable(index: String, columns: String, values: String, aggfunc: String = "mean"): XFrame =
    derive(PivotOp(index, columns, values, aggfunc), Vector(tileable))

  // -- evaluation triggers ----------------------------------------------

  /** Materialize and return the result as one Spark DataFrame, chunks
    * concatenated in row order (the paper's `execute`/`fetch`).
    */
  def toDF(): DataFrame = engine.collect(tileable)

  /** Row count from chunk metadata (materializes the frame). */
  def count(): Long = engine.countRows(tileable)

  /** Number of chunks this frame tiles into (materializes dependencies
    * when dynamic tiling needs them).
    */
  def numChunks(): Int = engine.numChunks(tileable)
}

/** groupby handle: `df.groupby("k").agg(...)`. */
final class XGroupBy private[repro] (frame: XFrame, keys: Seq[String]) {
  /** One output column per spec, after the keys: each spec's `out` must
    * be new.
    */
  def agg(specs: AggSpec*): XFrame = {
    require(specs.nonEmpty, "agg requires at least one aggregate")
    val outs = specs.map(_.out)
    require(outs.distinct.size == outs.size, s"agg names an output twice: ${outs.diff(outs.distinct).mkString(", ")}")
    require(!outs.exists(keys.contains), s"agg output is a groupby key: ${outs.filter(keys.contains).mkString(", ")}")
    new XFrame(frame.engine, new Tileable(TileableOp.GroupAggOp(keys, specs), Vector(frame.tileable)))
  }
}

object XFrame {

  /** The `how` values `merge` accepts. */
  private val MergeHows: Seq[String] = Seq("inner", "left", "leftsemi", "leftanti")

  /** Register a named input table with the engine (the read_parquet
    * analog — the source is chunked on first tiling). The engine indexes
    * each DataFrame once, whatever name it comes under; `name` labels its
    * chunks.
    */
  def source(engine: Engine, name: String, df: DataFrame): XFrame =
    new XFrame(engine, new Tileable(TileableOp.SourceOp(name, df), Vector.empty))
}
