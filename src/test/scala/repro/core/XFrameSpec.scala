package repro.core

import org.apache.spark.sql.functions._

import repro.{JobProbe, Oracle, SparkSpec, SynthData}
import repro.core.AggSpec._

/** pandas-style API surface, oracle-checked against DuckDB over the
  * synthetic TPC-H-lite inputs.
  */
class XFrameSpec extends SparkSpec {

  private val sf = 0.002
  private def cfg = EngineConfig(chunkSizeLimit = 128 << 10,
    treeReduceThreshold = 128 << 10, broadcastThreshold = 64 << 10)

  private def withEngine[T](f: Engine => T): T = {
    val e = new Engine(spark, cfg)
    try f(e) finally e.reset()
  }

  test("filter + count vs DuckDB") {
    withEngine { e =>
      val li = SynthData.lineitem(spark, sf)
      val got = XFrame.source(e, "lineitem", li)
        .filter(col("l_quantity") < 10)
        .groupby().agg(CountAgg("n")).toDF()
      Oracle.assertEquivalent(got,
        "SELECT COUNT(*) AS n FROM lineitem WHERE CAST(l_quantity AS DOUBLE) < 10",
        "lineitem" -> li)
    }
  }

  test("groupby sum/avg vs DuckDB (approx for float sums)") {
    withEngine { e =>
      val li = SynthData.lineitem(spark, sf)
      val got = XFrame.source(e, "lineitem", li)
        .groupby("l_returnflag")
        .agg(SumAgg("l_quantity", "q"), MeanAgg("l_discount", "d"), CountAgg("n")).toDF()
      Oracle.assertEquivalentApprox(got,
        """SELECT l_returnflag, SUM(CAST(l_quantity AS DOUBLE)) AS q,
                  AVG(CAST(l_discount AS DOUBLE)) AS d, COUNT(*) AS n
           FROM lineitem GROUP BY l_returnflag""",
        Seq("lineitem" -> li))
    }
  }

  test("merge orders-customer vs DuckDB") {
    withEngine { e =>
      val o = SynthData.orders(spark, sf)
      val c = SynthData.customer(spark, sf)
      val got = XFrame.source(e, "orders", o)
        .rename("o_custkey" -> "c_custkey")
        .merge(XFrame.source(e, "customer", c), Seq("c_custkey"))
        .groupby("c_mktsegment").agg(CountAgg("n")).toDF()
      Oracle.assertEquivalent(got,
        """SELECT c_mktsegment, COUNT(*) AS n
           FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
           GROUP BY c_mktsegment""",
        "orders" -> o, "customer" -> c)
    }
  }

  test("semi merge (exists) vs DuckDB") {
    withEngine { e =>
      val o = SynthData.orders(spark, sf)
      val li = SynthData.lineitem(spark, sf)
      val got = XFrame.source(e, "orders", o)
        .merge(
          XFrame.source(e, "lineitem", li)
            .filter(col("l_quantity") > 45).select("l_orderkey")
            .rename("l_orderkey" -> "o_orderkey"),
          Seq("o_orderkey"), "leftsemi")
        .groupby().agg(CountAgg("n")).toDF()
      Oracle.assertEquivalent(got,
        """SELECT COUNT(*) AS n FROM orders o WHERE EXISTS (
             SELECT 1 FROM lineitem l
             WHERE CAST(l.l_orderkey AS BIGINT) = CAST(o.o_orderkey AS BIGINT)
               AND CAST(l.l_quantity AS DOUBLE) > 45)""",
        "orders" -> o, "lineitem" -> li)
    }
  }

  test("anti merge (not exists) vs DuckDB") {
    withEngine { e =>
      val c = SynthData.customer(spark, sf)
      val o = SynthData.orders(spark, sf)
      val got = XFrame.source(e, "customer", c)
        .rename("c_custkey" -> "o_custkey")
        .merge(XFrame.source(e, "orders", o).select("o_custkey"), Seq("o_custkey"), "leftanti")
        .groupby().agg(CountAgg("n")).toDF()
      Oracle.assertEquivalent(got,
        """SELECT COUNT(*) AS n FROM customer c WHERE NOT EXISTS (
             SELECT 1 FROM orders o
             WHERE CAST(o.o_custkey AS BIGINT) = CAST(c.c_custkey AS BIGINT))""",
        "customer" -> c, "orders" -> o)
    }
  }

  test("withColumn + case-when aggregation vs DuckDB") {
    withEngine { e =>
      val li = SynthData.lineitem(spark, sf)
      val got = XFrame.source(e, "lineitem", li)
        .withColumn("flag", when(col("l_discount") > 0.05, 1L).otherwise(0L))
        .groupby("l_linestatus").agg(SumAgg("flag", "hi")).toDF()
      Oracle.assertEquivalent(got,
        """SELECT l_linestatus,
                  SUM(CASE WHEN CAST(l_discount AS DOUBLE) > 0.05 THEN 1 ELSE 0 END) AS hi
           FROM lineitem GROUP BY l_linestatus""",
        "lineitem" -> li)
    }
  }

  test("dropDuplicates subset vs DuckDB distinct count") {
    withEngine { e =>
      val li = SynthData.lineitem(spark, sf)
      val got = XFrame.source(e, "lineitem", li)
        .dropDuplicates("l_orderkey")
        .groupby().agg(CountAgg("n")).toDF()
      Oracle.assertEquivalent(got,
        "SELECT COUNT(DISTINCT l_orderkey) AS n FROM lineitem",
        "lineitem" -> li)
    }
  }

  test("sort + head returns the global top rows") {
    withEngine { e =>
      val o = SynthData.orders(spark, sf)
      val got = XFrame.source(e, "orders", o)
        .sortValues(Seq("o_totalprice"), Seq(false)).head(5).toDF()
        .select("o_orderkey", "o_totalprice")
      val want = o.orderBy(col("o_totalprice").desc).limit(5)
        .select("o_orderkey", "o_totalprice")
      val g = got.collect().map(_.getDouble(1))
      val w = want.collect().map(_.getDouble(1))
      assert(g.sameElements(w))
    }
  }

  test("crossMerge against a scalar frame filters like a subquery") {
    withEngine { e =>
      val c = SynthData.customer(spark, sf)
      val cust = XFrame.source(e, "customer", c)
      val avgBal = cust.groupby().agg(MeanAgg("c_acctbal", "ab"))
      val got = cust.crossMerge(avgBal).filter(col("c_acctbal") > col("ab"))
        .groupby().agg(CountAgg("n")).toDF()
      Oracle.assertEquivalent(got,
        """SELECT COUNT(*) AS n FROM customer
           WHERE CAST(c_acctbal AS DOUBLE) > (SELECT AVG(CAST(c_acctbal AS DOUBLE)) FROM customer)""",
        "customer" -> c)
    }
  }

  test("fillna + groupby over generated census data vs DuckDB") {
    withEngine { e =>
      val cen = SynthData.censusLike(spark, 0.001)
      val got = XFrame.source(e, "census", cen)
        .fillna("Unknown", "workclass")
        .groupby("workclass").agg(CountAgg("n")).toDF()
      Oracle.assertEquivalent(got,
        "SELECT COALESCE(workclass, 'Unknown') AS workclass, COUNT(*) AS n FROM census GROUP BY COALESCE(workclass, 'Unknown')",
        "census" -> cen)
    }
  }

  test("agg outputs named twice or after a key, and a fillna value of another type, fail when built") {
    withEngine { e =>
      val f = XFrame.source(e, "t", SynthData.uniformKeys(spark, 100, 10))
      val (errs, probe) = JobProbe(spark.sparkContext)(Seq(
        intercept[IllegalArgumentException](f.groupby("k").agg(SumAgg("v", "s"), MeanAgg("v", "s"))),
        intercept[IllegalArgumentException](f.groupby("k").agg(SumAgg("v", "k"))),
        intercept[IllegalArgumentException](f.fillna(true, "v")),
      ).map(_.getMessage))
      assert(probe.jobs == 0, s"${probe.jobs} Spark jobs ran")
      errs.zip(Seq("output twice: s", "groupby key: k", "value true")).foreach { case (err, want) =>
        assert(err.contains(want), err)
      }
      Seq[Any](0.5, 1L, 1, "x").foreach(v => f.fillna(v, "v"))
    }
  }

  test("sortValues with one flag too few, and concat across engines, fail when built, naming the misuse") {
    withEngine { e =>
      withEngine { other =>
        val src = SynthData.uniformKeys(spark, 100, 10)
        val f = XFrame.source(e, "t", src)
        val g = XFrame.source(other, "t", src)
        val (errs, probe) = JobProbe(spark.sparkContext)(Seq(
          intercept[IllegalArgumentException](f.sortValues(Seq("k", "v"), Seq(true))),
          intercept[IllegalArgumentException](f.concat(g)),
        ).map(_.getMessage))
        assert(probe.jobs == 0, s"${probe.jobs} Spark jobs ran")
        errs.zip(Seq("by = [k, v], ascending = [true]", "cannot concat frames from different engines"))
          .foreach { case (err, want) => assert(err.contains(want), err) }
      }
    }
  }

  test("nunique per group vs DuckDB") {
    withEngine { e =>
      val li = SynthData.lineitem(spark, sf)
      val got = XFrame.source(e, "lineitem", li)
        .groupby("l_returnflag").agg(NUniqueAgg("l_orderkey", "u")).toDF()
      Oracle.assertEquivalent(got,
        "SELECT l_returnflag, COUNT(DISTINCT l_orderkey) AS u FROM lineitem GROUP BY l_returnflag",
        "lineitem" -> li)
    }
  }

  test("chained pipeline: filter → merge → groupby → sort survives end-to-end") {
    withEngine { e =>
      val o = SynthData.orders(spark, sf)
      val c = SynthData.customer(spark, sf)
      val got = XFrame.source(e, "orders", o)
        .filter(col("o_orderstatus") === "F")
        .rename("o_custkey" -> "c_custkey")
        .merge(XFrame.source(e, "customer", c).select("c_custkey", "c_nationkey"), Seq("c_custkey"))
        .groupby("c_nationkey").agg(CountAgg("n"), SumAgg("o_totalprice", "tp"))
        .sortValues("c_nationkey").toDF()
      Oracle.assertEquivalentApprox(got,
        """SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, COUNT(*) AS n,
                  SUM(CAST(o_totalprice AS DOUBLE)) AS tp
           FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
           WHERE o_orderstatus = 'F'
           GROUP BY CAST(c_nationkey AS BIGINT)""",
        Seq("orders" -> o, "customer" -> c))
    }
  }
}
