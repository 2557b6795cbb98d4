package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.{Oracle, SynthData}
import repro.baseline.Engines
import repro.core.{Engine, EngineConfig, SchemaBytes}
import repro.tpch.{TpchCtx, TpchData, TpchQueries, TpchQuery}
import repro.workloads.Uc10

/** The output of one operation, checked outside the timed region. */
trait Result {
  /** Checks against an independent reference (the cold pass). */
  def verify(): Unit
  /** Checks against the verified result of the cold pass. */
  def verifyAgainst(ref: Result): Unit
}

/** Collected rows of a query or pipeline. */
final class RowsResult(val rows: Seq[Row], oracle: () => Unit) extends Result {
  def verify(): Unit = oracle()
  def verifyAgainst(ref: Result): Unit = ref match {
    case r: RowsResult => RowsResult.compare(rows, r.rows)
    case other         => throw new IllegalStateException(s"reference is $other")
  }
}

object RowsResult {
  /** Relative tolerance of numeric cells, as in `Oracle.assertEquivalentApprox`. */
  val RelTol = 1e-6

  private def cell(v: Any): Either[String, Double] = v match {
    case null                     => Left("∅")
    case d: Double                => Right(d)
    case f: Float                 => Right(f.toDouble)
    case i: Int                   => Right(i.toDouble)
    case l: Long                  => Right(l.toDouble)
    case bd: java.math.BigDecimal => Right(bd.doubleValue)
    case x                        => Left(x.toString)
  }

  private def canon(rows: Seq[Row]): Seq[Seq[Either[String, Double]]] =
    rows.map(_.toSeq.map(cell)).sortBy(_.map {
      case Left(s)  => s
      case Right(d) => f"$d%020.4f"
    }.mkString("|"))

  def compare(got: Seq[Row], exp: Seq[Row]): Unit = {
    require(got.size == exp.size, s"row count ${got.size}, cold pass had ${exp.size}")
    canon(got).zip(canon(exp)).zipWithIndex.foreach { case ((g, e), i) =>
      val ok = g.size == e.size && g.zip(e).forall {
        case (Right(x), Right(y)) => math.abs(x - y) <= RelTol * math.max(1.0, math.max(math.abs(x), math.abs(y)))
        case (x, y)               => x == y
      }
      require(ok, s"row $i differs from the cold pass: $g vs $e")
    }
  }
}

/** A planning result of `plan_wide`. */
final class PlanResult(val plan: Planner.Plan) extends Result {
  def verify(): Unit = require(plan.faults.isEmpty, plan.faults.mkString("; "))
  def verifyAgainst(ref: Result): Unit = {
    verify()
    ref match {
      case r: PlanResult =>
        require(plan.chunkTasks == r.plan.chunkTasks && plan.subtasks == r.plan.subtasks &&
          plan.shape == r.plan.shape, "plan shape differs from the cold pass")
      case other => throw new IllegalStateException(s"reference is $other")
    }
  }
}

/** One measured operation: a query or a pipeline pass. */
trait Op {
  def name: String
  def run(m: Meter): Result
}

/** A benchmark workload: generated inputs, an engine, and the
  * operations of one pass.
  */
trait Workload {
  def name: String
  /** Parameters printed in the output header. */
  def settings: Seq[(String, Any)]
  /** Derives the inputs from the seed, before any timing. */
  def prepare(spark: SparkSession, seed: Long): Unit = ()
  /** Generates the inputs and caches them; timed as set-up. */
  def generate(spark: SparkSession): Unit
  /** Drops the cached inputs. */
  def release(): Unit
  /** Checks the inputs before timing; returns the values it checked. */
  def guard(spark: SparkSession): Seq[(String, Any)]
  def engine(spark: SparkSession): Engine
  /** Operations of one pass on `engine`; called once per engine. */
  def ops(engine: Engine): Seq[Op]
  /** Checks that a verified cold pass did what the workload is for. */
  def coldGuard(passOps: Seq[OpRec]): Unit = ()
}

object Workloads {
  val names: Seq[String] = Seq("tpch", "uc10_spill", "plan_wide")

  def apply(name: String): Workload = name match {
    case "tpch"       => new Tpch
    case "uc10_spill" => new Uc10Spill
    case "plan_wide"  => new PlanWide
    case other        => throw new IllegalArgumentException(s"unknown workload $other (one of ${names.mkString(", ")})")
  }

  private def cache(dfs: Map[String, DataFrame]): Map[String, DataFrame] = {
    val cached = dfs.map { case (n, df) => n -> df.persist(StorageLevel.MEMORY_ONLY) }
    cached.values.foreach(_.count())
    cached
  }

  private def uncache(dfs: Iterable[DataFrame]): Unit = dfs.foreach(_.unpersist(true))

  /** The tables restricted to the columns `sql` names. The oracle loads
    * DuckDB row by row, so unused columns only cost time; a column the
    * SQL needs but that is missing fails the check loudly.
    */
  def referenced(tables: Map[String, DataFrame], sql: String): Map[String, DataFrame] = {
    val words = "[A-Za-z_][A-Za-z0-9_]*".r.findAllIn(sql).toSet
    tables.map { case (n, df) => n -> df.select(df.columns.filter(words.contains).map(col).toIndexedSeq: _*) }
  }

  /** TPC-H-lite tables, every generator seeded from `base`. */
  def tpchTables(spark: SparkSession, sf: Double, base: Long): Map[String, DataFrame] = Map(
    "lineitem" -> SynthData.lineitemFull(spark, sf, base),
    "orders"   -> SynthData.ordersFull(spark, sf, base + 20),
    "customer" -> SynthData.customerFull(spark, sf, base + 40),
    "part"     -> SynthData.partFull(spark, sf, base + 60),
    "supplier" -> SynthData.supplier(spark, sf, base + 80),
    "partsupp" -> SynthData.partsupp(spark, sf, base + 90),
    "nation"   -> SynthData.nation(spark),
    "region"   -> SynthData.region(spark),
  )

  final class TpchQueryOp(q: TpchQuery, ctx: TpchCtx, tables: Map[String, DataFrame]) extends Op {
    val name = s"Q${q.id}"
    def run(m: Meter): Result = {
      val x = m("build")(q.run(ctx))
      val chunks = m.tile(x.tileable)
      m("execute")(ctx.engine.execute(chunks))
      val df = m("collect")(ctx.engine.collect(x.tileable))
      val rows = m("action")(df.collect()).toSeq
      val used = referenced(tables.view.filterKeys(q.tables.contains).toMap, q.sql)
      new RowsResult(rows, () => Oracle.assertEquivalentApprox(df, TpchData.fullSql(q, used), used.toSeq))
    }
  }

  /** TPC-H-lite Q21 on the dynamic engine. Each table is one chunk and
    * every chunk-level step is its own Spark job, so per-chunk job and
    * driver overhead dominates. Q21 takes every dynamic-tiling decision:
    * NeedExec sampling, tree reduce, broadcast merge and, with the
    * tree-reduce threshold below its nunique aggregates' size, shuffle
    * reduce.
    */
  final class Tpch extends Workload {
    val name = "tpch"
    val sf = 0.002
    val chunkLimit: Long = 2L << 20
    val treeReduceThreshold: Long = 64L << 10
    val broadcastThreshold: Long = 1L << 20
    val queryIds = Seq(21)
    /** Inputs are re-derived from the seed, at most this many times,
      * until `Q21Inputs.accept` holds.
      */
    val maxAttempts = 64
    private var seed = 0L
    private var attempt = 0
    private var q21 = 0L
    private var tables: Map[String, DataFrame] = Map.empty

    def settings = Seq("sf" -> sf, "chunk_limit_bytes" -> chunkLimit,
      "tree_reduce_threshold_bytes" -> treeReduceThreshold, "broadcast_threshold_bytes" -> broadcastThreshold,
      "memory_budget_bytes" -> EngineConfig().memoryBudget, "queries" -> queryIds.map("Q" + _).mkString(","))

    private val used = queryIds.flatMap(id => TpchQueries.byId(id).tables).toSet

    /** The eight tables; attempt `k` re-derives `orders` and `supplier`. */
    private def inputs(spark: SparkSession, k: Int): Map[String, DataFrame] =
      tpchTables(spark, sf, seed * 100) ++ Map(
        "orders" -> SynthData.ordersFull(spark, sf, seed * 100 + 20 + k * 1000),
        "supplier" -> SynthData.supplier(spark, sf, seed * 100 + 80 + k * 1000))

    override def prepare(spark: SparkSession, s: Long): Unit = {
      seed = s
      val check = new Q21Inputs(inputs(spark, 0)("lineitem"))
      attempt = (0 until maxAttempts).find { k =>
        val t = inputs(spark, k)
        q21 = check.accept(t("orders"), t("supplier"))
        q21 > 0
      }.getOrElse(throw new IllegalStateException(s"no accepted Q21 inputs derived from seed $s"))
    }

    /** Caches only the tables the queries read; the others stay lazy. */
    def generate(spark: SparkSession): Unit = {
      val all = inputs(spark, attempt)
      tables = all ++ cache(all.filter(t => used(t._1)))
    }

    def release(): Unit = uncache(tables.filter(t => used(t._1)).values)

    def guard(spark: SparkSession) = Seq("q21_rows" -> q21, "input_attempt" -> attempt)

    def engine(spark: SparkSession): Engine = new Engine(spark, EngineConfig(
      chunkSizeLimit = chunkLimit, treeReduceThreshold = treeReduceThreshold,
      broadcastThreshold = broadcastThreshold))

    def ops(engine: Engine): Seq[Op] = {
      val ctx = TpchCtx(engine, tables)
      queryIds.map(id => new TpchQueryOp(TpchQueries.byId(id), ctx, tables))
    }
  }

  /** Input guard of `tpch`, evaluated on the driver from collected
    * columns so that it plans no query before the cold pass.
    *
    * It accepts inputs on which Q21 returns rows, and on which the
    * late line items of finished orders are at least as many as the
    * distinct orders of all line items. Q21 merges those two sides, and
    * their sizes differ by a few percent only: inputs on the other side
    * of that tie make the engine broadcast the other side, which doubles
    * the chunks of every later step. Keeping every seed on one side keeps
    * runs with different seeds comparable.
    */
  final class Q21Inputs(lineitem: DataFrame) {
    /** (order, supplier, late) per line item. */
    private val lines = lineitem.select("l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate")
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getDate(2).after(r.getDate(3))))
    private val byOrder = lines.groupBy(_._1)
    private val saudi = SynthData.nation(lineitem.sparkSession).where(col("n_name") === "SAUDI ARABIA")
      .collect().map(_.getAs[Int]("n_nationkey")).toSet

    /** Q21's row count if the inputs are accepted, else 0. */
    def accept(orders: DataFrame, supplier: DataFrame): Long = {
      val finished = orders.where(col("o_orderstatus") === "F").select("o_orderkey")
        .collect().map(_.getLong(0)).toSet
      val lateFinished = lines.count { case (o, _, late) => late && finished(o) }
      if (lateFinished < byOrder.size) return 0
      val names = supplier.collect()
        .filter(r => saudi(r.getAs[Int]("s_nationkey")))
        .map(r => r.getAs[Long]("s_suppkey") -> r.getAs[String]("s_name")).toMap
      lines.collect {
        case (o, s, true) if names.contains(s) && finished(o) &&
          byOrder(o).exists(_._2 != s) && !byOrder(o).exists(l => l._2 != s && l._3) => names(s)
      }.distinct.length.toLong
    }
  }

  /** The UC10 skew pipeline with a storage memory tier smaller than its
    * working set, so chunks spill to the parquet disk tier and are read
    * back from it.
    */
  final class Uc10Spill extends Workload {
    val name = "uc10_spill"
    val sf = 0.002
    val nCustomers = 200L
    val chunkLimit: Long = 512L << 10
    val memoryBudget: Long = 256L << 10
    private var seed = 0L
    private var in: Uc10.Inputs = null

    def settings = Seq("sf" -> sf, "customers" -> nCustomers, "chunk_limit_bytes" -> chunkLimit,
      "engine" -> "Engines.xorbits + memoryBudget", "memory_budget_bytes" -> memoryBudget)

    override def prepare(spark: SparkSession, s: Long): Unit = seed = s

    def generate(spark: SparkSession): Unit = {
      val t = cache(Map(
        "tx" -> SynthData.transactions(spark, sf, nCustomers, seed = seed * 100),
        "cust" -> SynthData.uc10Customers(spark, nCustomers, seed = seed * 100 + 50)))
      in = Uc10.Inputs(t("tx"), t("cust"))
    }

    def release(): Unit = uncache(Seq(in.transactions, in.customers))

    def guard(spark: SparkSession) = {
      val txRows = in.transactions.count()
      val cRows = in.customers.count()
      val ratio = (txRows * SchemaBytes.rowWidth(in.transactions.schema)).toDouble /
        (cRows * SchemaBytes.rowWidth(in.customers.schema))
      val hot = in.transactions.groupBy("t_custkey").count().agg(max("count")).head().getLong(0)
      val share = hot.toDouble / txRows
      require(ratio > 100, f"fact:dimension byte ratio $ratio%.1f is not > 100")
      require(share > 0.05, f"hot-key share $share%.3f is not > 0.05")
      Seq("fact_dim_byte_ratio" -> ratio, "hot_key_share" -> share)
    }

    def engine(spark: SparkSession): Engine = new Engine(spark, EngineConfig(
      chunkSizeLimit = chunkLimit, treeReduceThreshold = chunkLimit,
      broadcastThreshold = chunkLimit / 2, memoryBudget = memoryBudget))

    def ops(engine: Engine): Seq[Op] = Seq(new Op {
      val name = "uc10"
      def run(m: Meter): Result = {
        val x = m("build")(Uc10.pipeline(engine, in))
        val chunks = m.tile(x.tileable)
        m("execute")(engine.execute(chunks))
        val df = m("collect")(engine.collect(x.tileable))
        val rows = m("action")(df.collect()).toSeq
        new RowsResult(rows, () => Oracle.assertEquivalentApprox(df, Uc10.referenceSql,
          referenced(Map("tx" -> in.transactions, "cust" -> in.customers), Uc10.referenceSql).toSeq))
      }
    })
  }

  /** Planning only: TPC-H Q5 and Q9 on the static planner with 16 KB
    * chunks and 64 reducers give chunk graphs of tens of thousands of
    * tasks, the only size at which fusion and scheduling cost shows.
    */
  final class PlanWide extends Workload {
    val name = "plan_wide"
    val sf = 0.004
    val chunkLimit: Long = 16L << 10
    val reducers = 64
    val queryIds = Seq(5, 9)
    val minChunkTasks = 10000
    private var seed = 0L
    private var tables: Map[String, DataFrame] = Map.empty

    def settings = Seq("sf" -> sf, "chunk_limit_bytes" -> chunkLimit,
      "engine" -> s"Engines.static(reducers = $reducers)", "queries" -> queryIds.map("Q" + _).mkString(","))

    override def prepare(spark: SparkSession, s: Long): Unit = seed = s

    def generate(spark: SparkSession): Unit = tables = cache(tpchTables(spark, sf, seed * 100))

    def release(): Unit = uncache(tables.values)

    def guard(spark: SparkSession) = Seq("lineitem_rows" -> tables("lineitem").count())

    def engine(spark: SparkSession): Engine = Engines.static(spark, chunkLimit, reducers)

    def ops(engine: Engine): Seq[Op] = {
      val ctx = TpchCtx(engine, tables)
      queryIds.map { id =>
        val q = TpchQueries.byId(id)
        new Op {
          val name = s"plan:Q$id"
          def run(m: Meter): Result = {
            val x = m("build")(q.run(ctx))
            val chunks = m.tile(x.tileable)
            val plan = Planner.plan(engine, chunks, engine.isMaterialized)
            m.rec.plan = Some(plan)
            new PlanResult(plan)
          }
        }
      }
    }

    override def coldGuard(passOps: Seq[OpRec]): Unit = passOps.foreach { r =>
      val n = r.plan.map(_.chunkTasks).getOrElse(0)
      require(n >= minChunkTasks, s"${r.name} planned $n chunk tasks, fewer than $minChunkTasks")
    }
  }
}
