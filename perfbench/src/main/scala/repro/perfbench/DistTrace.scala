package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Eev, Subgraph, TEdge, TemporalGraph, TspgQuery}
import repro.dist._

/** Counts Spark jobs by the phase that submitted them. The phase travels in a job's
  * local properties, so the count is right even though listener events arrive late.
  */
final class JobCounter extends SparkListener {
  private val counts = new ConcurrentHashMap[String, AtomicInteger]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val phase = Option(e.properties).map(_.getProperty(JobCounter.PhaseKey)).orNull
    if (phase != null) counts.computeIfAbsent(phase, _ => new AtomicInteger).incrementAndGet()
  }

  def apply(phase: String): Int = Option(counts.get(phase)).map(_.get).getOrElse(0)
}

object JobCounter {
  val PhaseKey = "perfbench.phase"
}

/** Per-phase wall time (each phase's output materialised before its clock stops) and
  * Spark jobs of one `DistVug` query.
  */
final case class DistSpan(phaseNs: Map[String, Long], jobs: Map[String, Int],
                          tspg: Subgraph, gt: Set[TEdge])

/** The traced dist pipeline: the calls `DistVug.run` makes, timed from outside. */
object DistTrace {

  val Phases: Seq[String] = Seq("polarity", "quickubg", "tcv", "tightubg", "collect_eev")

  def run(spark: SparkSession, counter: JobCounter, edges: DataFrame,
          q: TspgQuery): DistSpan = {
    val sc = spark.sparkContext
    val jobsBefore = Phases.map(p => p -> counter(p)).toMap
    val phaseNs = scala.collection.mutable.Map.empty[String, Long]
    def phase[A](name: String)(body: => A): A = {
      sc.setLocalProperty(JobCounter.PhaseKey, name)
      val t0 = System.nanoTime()
      val a  = body
      phaseNs(name) = System.nanoTime() - t0
      a
    }
    val (arr, dep) = phase("polarity") {
      (DistPolarity.arrivals(spark, edges, q).localCheckpoint(),
        DistPolarity.departures(spark, edges, q).localCheckpoint())
    }
    val gq  = phase("quickubg")(DistQuickUbg(edges, arr, dep).localCheckpoint())
    val (fwd, bwd) = phase("tcv") {
      (DistTcv.forward(spark, gq, q).localCheckpoint(),
        DistTcv.backward(spark, gq, q).localCheckpoint())
    }
    val gt = phase("tightubg")(DistTightUbg(spark, gq, q, fwd, bwd).localCheckpoint())
    val (gtEdges, tspg) = phase("collect_eev") {
      val gtEdges = GraphDF.toEdgeSet(gt)
      val maxId = (gtEdges.iterator.flatMap(e => Iterator(e.src, e.dst)) ++
        Iterator(q.s, q.t)).max
      (gtEdges, Eev(TemporalGraph(maxId + 1, gtEdges), q))
    }
    awaitListener(spark, counter)
    sc.setLocalProperty(JobCounter.PhaseKey, null)
    DistSpan(phaseNs.toMap, Phases.map(p => p -> (counter(p) - jobsBefore(p))).toMap, tspg, gtEdges)
  }

  /** Runs a marker job and waits until the listener has seen it: listener events are
    * delivered in order, so every earlier job has then been counted.
    */
  private def awaitListener(spark: SparkSession, counter: JobCounter): Unit = {
    val before = counter("marker")
    spark.sparkContext.setLocalProperty(JobCounter.PhaseKey, "marker")
    spark.sparkContext.parallelize(Seq(1), 1).count()
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (counter("marker") == before && System.nanoTime() < deadline) Thread.sleep(5)
  }

  def metrics(spans: Seq[DistSpan], cacheS: Double): Metrics = {
    val m = new Metrics
    def ms(p: String)   = Stats.ms(spans.map(_.phaseNs(p).toDouble).sum)
    def jobs(p: String) = spans.map(_.jobs(p).toDouble).sum
    m("dist.queries", "count")      = spans.length
    m("dist.cache_s", "s")          = cacheS
    Phases.foreach(p => m(s"dist.${p}_ms", "ms") = ms(p))
    m("dist.polarity_jobs", "count") = jobs("polarity")
    m("dist.tcv_jobs", "count")      = jobs("tcv")
    m("dist.tightubg_jobs", "count") = jobs("tightubg")
    m("dist.spark_jobs", "count")    = Phases.map(jobs).sum
    m
  }
}
