package repro.perfbench

import java.lang.management.ManagementFactory

import repro.core._

/** One query run through the core layers one public call at a time, with each call's
  * wall time and allocated bytes, and the sizes of what each layer hands on.
  */
final case class CoreSpan(
    arrivalsNs: Long, departuresNs: Long, quickNs: Long, quickBytes: Long,
    forwardNs: Long, backwardNs: Long, tightNs: Long, eevNs: Long, eevBytes: Long,
    windowEdges: Int, gqEdges: Int, gtEdges: Int, tspgEdges: Int, eev: EevStats,
) {
  def phaseNs: Long =
    arrivalsNs + departuresNs + quickNs + forwardNs + backwardNs + tightNs + eevNs
}

/** The traced core pipeline: the same calls `Vug.run` makes, timed from outside. */
object CoreTrace {

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Wall nanos and bytes allocated by the current thread while `body` runs. */
  private def span[A](body: => A): (A, Long, Long) = {
    val b0 = threads.getCurrentThreadAllocatedBytes
    val t0 = System.nanoTime()
    val a  = body
    val t1 = System.nanoTime()
    (a, t1 - t0, threads.getCurrentThreadAllocatedBytes - b0)
  }

  /** The EEV counters of the query just verified. The only read of `Eev.lastStats`. */
  private def eevCounters(): EevStats = Eev.lastStats

  def run(g: TemporalGraph, q: TspgQuery): (Subgraph, CoreSpan) = {
    val (arr, arrNs, _)        = span(PolarityTime.arrivals(g, q))
    val (dep, depNs, _)        = span(PolarityTime.departures(g, q))
    val (gq, quickNs, quickB)  = span(QuickUbg(g, arr, dep))
    val (fwd, fwdNs, _)        = span(Tcv.forward(gq, q))
    val (bwd, bwdNs, _)        = span(Tcv.backward(gq, q))
    val (gt, tightNs, _)       = span(TightUbg(gq, q, fwd, bwd))
    val (tspg, eevNs, eevB)    = span(Eev(gt, q))
    val stats = eevCounters()
    (tspg, CoreSpan(arrNs, depNs, quickNs, quickB, fwdNs, bwdNs, tightNs, eevNs, eevB,
      Window.size(g, q), gq.m, gt.m, tspg.edgeCount, stats))
  }

  /** Per-layer metrics over the spans of one traced pass. Sizes are per-query medians;
    * ratios are taken over the pass's totals.
    */
  def metrics(g: TemporalGraph, spans: Seq[CoreSpan]): Metrics = {
    import Stats._
    val m = new Metrics
    def p50Ms(f: CoreSpan => Long)   = ms(median(spans.map(f(_).toDouble)))
    def totalMs(f: CoreSpan => Long) = ms(spans.map(f(_).toDouble).sum)
    def med(f: CoreSpan => Int)      = median(spans.map(f(_).toDouble))
    def sum(f: CoreSpan => Int)      = spans.map(f(_).toDouble).sum
    def perQueryMb(f: CoreSpan => Long) = mb(spans.map(f(_).toDouble).sum / spans.length)

    m("polarity.arrivals_p50_ms", "ms")     = p50Ms(_.arrivalsNs)
    m("polarity.arrivals_total_ms", "ms")   = totalMs(_.arrivalsNs)
    m("polarity.departures_p50_ms", "ms")   = p50Ms(_.departuresNs)
    m("polarity.departures_total_ms", "ms") = totalMs(_.departuresNs)
    m("quickubg.filter_p50_ms", "ms")       = p50Ms(_.quickNs)
    m("quickubg.filter_total_ms", "ms")     = totalMs(_.quickNs)
    m("quickubg.alloc_mb", "MB")            = perQueryMb(_.quickBytes)
    m("window.edges", "count")              = med(_.windowEdges)
    m("window.frac_of_m", "ratio")          = ratio(med(_.windowEdges), g.m)
    m("quickubg.gq_edges", "count")         = med(_.gqEdges)
    m("quickubg.gq_over_window", "ratio")   = ratio(sum(_.gqEdges), sum(_.windowEdges))
    m("tcv.forward_total_ms", "ms")         = totalMs(_.forwardNs)
    m("tcv.backward_total_ms", "ms")        = totalMs(_.backwardNs)
    m("tightubg.filter_total_ms", "ms")     = totalMs(_.tightNs)
    m("tightubg.gt_edges", "count")         = med(_.gtEdges)
    m("tightubg.gt_over_gq", "ratio")       = ratio(sum(_.gtEdges), sum(_.gqEdges))
    m("eev.verify_p50_ms", "ms")            = p50Ms(_.eevNs)
    m("eev.verify_total_ms", "ms")          = totalMs(_.eevNs)
    m("eev.alloc_mb", "MB")                 = perQueryMb(_.eevBytes)
    // Table II's ratio: edges kept by EEV over edges it had to decide.
    m("eev.tspg_over_gt", "ratio")          = ratio(sum(_.tspgEdges), sum(_.gtEdges))
    m("eev.preverified", "count")           = sum(_.eev.preVerified)
    // Tree and random witnesses share one counter (the orElse in Eev.apply).
    m("eev.witness_hits", "count")          = sum(_.eev.treeWitnessHits)
    m("eev.dfs_searches", "count")          = sum(_.eev.dfsSearches)
    m("eev.escalations", "count")           = sum(_.eev.escalations)
    m("eev.negatives", "count")             = sum(_.eev.negatives)
    m
  }
}
