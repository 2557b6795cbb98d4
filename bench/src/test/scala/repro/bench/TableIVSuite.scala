package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.baseline.Engines

/** Paper Table IV: the frameworks and versions under test. Our engine
  * variants substitute for the external frameworks (DESIGN.md §3); this
  * suite records the mapping and the substrate versions.
  */
class TableIVSuite extends AnyFunSuite {

  test("Table IV: baseline systems → engine-variant mapping") {
    new BenchPrinter().printTable(
      "Table IV — frameworks (paper) vs engine variants (ours)",
      Seq("paper system", "paper version", "our substitute", "planning model"),
      Seq(
        Seq("NumPy", "1.26", "Breeze chunks (tensor backend)", "single-node kernels"),
        Seq("pandas", "2.1.1", "Engines.singleNode", "one chunk, no partitioning"),
        Seq("Xorbits", "0.6.3", "Engines.xorbits", "dynamic tiling + fusion + combine"),
        Seq("PySpark", "3.5.0", "plain Spark SQL (Catalyst)", "static SQL planning"),
        Seq("Dask", "2023.9", "Engines.static", "static chunks, fixed-R shuffle, no iloc"),
        Seq("Modin", "0.24.1", "Engines.static(reducers=1)", "row partitions, degenerate reduce"),
      ))
    succeed
  }

  test("engine variants expose the ablation axes the paper varies") {
    // Compile-level check that every named variant exists and differs in
    // the intended config axis.
    val spark = repro.SparkSpec.shared
    val x = Engines.xorbits(spark); val s = Engines.static(spark)
    val g = Engines.noGraphFusion(spark)
    val n = Engines.singleNode(spark)
    try {
      assert(x.config.dynamicTiling && !s.config.dynamicTiling)
      assert(!g.config.graphFusion && g.config.dynamicTiling)
      assert(n.config.chunkSizeLimit > (1L << 50))
    } finally Seq(x, s, g, n).foreach(_.reset())
  }
}
