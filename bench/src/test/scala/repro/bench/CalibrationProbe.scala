package repro.bench

import repro.SparkSpec
import repro.core.{Eev, QuickUbg, TightUbg, Vug}
import repro.data.Datasets

/** Diagnostic probe (enabled only with REPRO_PROBE=1): per-query phase timing and
  * EEV effort counters on selected datasets. Not part of the reproduced tables.
  */
class CalibrationProbe extends SparkSpec {

  test("probe: per-query VUG profile") {
    assume(sys.env.get("REPRO_PROBE").contains("1"), "probe disabled")
    BenchUtil.datasets.foreach { spec =>
      val g  = BenchData.graph(spec)
      val qs = BenchData.queries(spec, BenchUtil.nQueries)
      println(s"--- ${spec.id} window-density check: m=${g.m}")
      qs.foreach { q =>
        val t0 = System.nanoTime()
        val gq = QuickUbg.compute(g, q)
        val t1 = System.nanoTime()
        val gt = TightUbg.compute(gq, q)
        val t2 = System.nanoTime()
        val sg = Eev(gt, q)
        val t3 = System.nanoTime()
        val st = Eev.lastStats
        println(f"q=(${q.s}->${q.t},[${q.tauB},${q.tauE}]) |Gq|=${gq.m}%6d |Gt|=${gt.m}%6d " +
          f"|tspG|=${sg.edgeCount}%6d quick=${(t1 - t0) / 1e6}%7.1f tight=${(t2 - t1) / 1e6}%7.1f " +
          f"eev=${(t3 - t2) / 1e6}%8.1f ms  pre=${st.preVerified} tree=${st.treeWitnessHits} " +
          f"dfs=${st.dfsSearches} esc=${st.escalations} neg=${st.negatives}")
      }
    }
  }
}
