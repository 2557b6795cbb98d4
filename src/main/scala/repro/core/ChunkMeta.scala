package repro.core

import org.apache.spark.sql.types._

/** Metadata recorded for a materialized chunk by the meta service
  * (paper §IV-B: "shape, columns, dtype, …").
  *
  * @param rows  exact row count observed at materialization
  * @param bytes estimated in-memory size (rows × schema row width)
  */
final case class ChunkMeta(rows: Long, bytes: Long)

/** Deterministic per-row byte-width estimate for a Spark schema.
  *
  * The engine needs a *stable* size estimate to drive tiling decisions
  * and the memory simulator; Spark's own `sizeInBytes` statistics vary
  * with caching state, so we derive widths from column types instead.
  */
object SchemaBytes {
  /** Estimated width in bytes of one value of the given type. */
  def fieldWidth(dt: DataType): Long = dt match {
    case BooleanType | ByteType       => 1L
    case ShortType                    => 2L
    case IntegerType | FloatType      => 4L
    case DateType                     => 4L
    case LongType | DoubleType        => 8L
    case TimestampType                => 8L
    case _: DecimalType               => 16L
    case StringType                   => 16L // average payload estimate
    case ArrayType(et, _)             => 8 * fieldWidth(et)
    case _                            => 16L
  }

  /** Estimated width of one row. */
  def rowWidth(schema: StructType): Long =
    math.max(1L, schema.fields.map(f => fieldWidth(f.dataType)).sum)
}
