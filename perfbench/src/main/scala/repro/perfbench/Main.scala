package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.{ExecutionException, Executors, TimeUnit, TimeoutException}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.SparkSession
import repro.core.{TEdge, TemporalGraph, TspgQuery, Vug}
import repro.data.{DatasetSpec, Datasets, Workload}
import repro.dist.GraphDF

/** A benchmark workload: one dataset, one query span and the work one run holds.
  *
  * @param poolSize   queries generated per set-up; the timed loop cycles through them
  * @param distSample whether the traced run also runs the pool's first query through
  *                   `dist/`
  */
final case class BenchWorkload(name: String, dataset: String, theta: Int, poolSize: Int,
                               distSample: Boolean) {
  def spec: DatasetSpec = Datasets.byId(dataset)

  /** The bench suites' workload seed (`BenchData.queries`). */
  def defaultSeed: Long = spec.seed * 7919L + theta
}

object BenchWorkload {
  val all: Seq[BenchWorkload] = Seq(
    // R1 at θ = 6: tiny windows, so a query costs QuickUBG's pass over all m edges and
    // little else. Polarity times, TCV and EEV are a few percent; the tail is light.
    BenchWorkload("r1-narrow", "R1", theta = 6, poolSize = 200, distSample = false),
    // R1 at its default θ = 10: the full-graph pass still sets the median, while
    // polarity times and EEV add the tail. The traced run also answers the pool's
    // first query through DistVug's phases.
    BenchWorkload("r1-default", "R1", theta = 10, poolSize = 400, distSample = true),
  )
}

/** Command line of one benchmark run. */
final case class Options(workload: BenchWorkload, seed: Long, seconds: Int, trace: Boolean,
                         answers: Path, record: Boolean)

object Options {
  def parse(args: Array[String]): Options = {
    val kv = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val name = kv.getOrElse("workload", sys.error("--workload is required"))
    val w = BenchWorkload.all.find(_.name == name)
      .getOrElse(sys.error(s"unknown workload $name; known: ${BenchWorkload.all.map(_.name).mkString(", ")}"))
    Options(w, kv.get("seed").map(_.toLong).getOrElse(w.defaultSeed),
      kv.getOrElse("seconds", "20").toInt, kv.getOrElse("trace", "0") == "1",
      Paths.get(kv.getOrElse("answers", "answers")), kv.getOrElse("record-answers", "0") == "1")
  }
}

/** The graph and queries of one set-up, with what the set-up cost. */
final case class SetUp(g: TemporalGraph, pool: IndexedSeq[TspgQuery], totalS: Double,
                       generateS: Double, buildS: Double, workloadS: Double, heapMb: Double)

/** Runs each query on one daemon thread with a deep stack (EEV and the enumeration
  * check recurse along paths), up to a deadline.
  */
final class QueryRunner(val ceilingAt: Long, queryLimitNs: Long) {
  @volatile private var worker: Thread = _
  private val pool = Executors.newSingleThreadExecutor { r =>
    val t = new Thread(null, r, "perfbench-query", 1L << 30)
    t.setDaemon(true)
    worker = t
    t
  }
  /** True once a stopped body failed to end: no further body can run. */
  var stuck = false

  /** Runs `body` until it ends or `deadline` passes. Then `stop` is applied to the
    * running thread and the result is `None`.
    */
  def apply[A](deadline: Long, stop: Thread => Unit)(body: => A): Option[Try[A]] =
    if (stuck) None
    else {
      val f = pool.submit(() => body)
      try Some(Success(f.get(math.max(0L, deadline - System.nanoTime()), TimeUnit.NANOSECONDS)))
      catch {
        case e: ExecutionException => Some(Failure(e.getCause))
        case _: TimeoutException =>
          stop(worker)
          Try(f.get(20L * 1000000000L, TimeUnit.NANOSECONDS))
          stuck = !f.isDone
          None
      }
    }

  /** One core query, stopped after the per-query limit or at the run's ceiling. The
    * core has no cancellation, so the thread is stopped; a query owns all the state it
    * touches, so nothing outlives the stop.
    */
  @annotation.nowarn("cat=deprecation")
  def query[A](body: => A): Option[Try[A]] =
    apply(math.min(ceilingAt, System.nanoTime() + queryLimitNs), _.stop())(body)
}

/** Tallies attempted and failed queries, keeping the reasons. */
final class Outcomes {
  var attempted = 0
  var failed    = 0
  val problems  = ArrayBuffer.empty[String]

  def fail(q: TspgQuery, why: String): Unit = {
    failed += 1
    problems += s"$q: $why"
  }
}

/** The VUG query benchmark: builds a workload's inputs from its seed, runs it as one
  * closed-loop client, checks every answer, and prints the run's metrics. The last line
  * of standard output is the result as one JSON object.
  */
object Main {

  /** Set-ups per run; `setup_s` and `graph_heap_mb` are their medians. */
  val SetupReps = 3
  /** Wall-clock ceiling of a run, from JVM start; a query still running then fails. */
  val CeilingSeconds = 160
  /** The same ceiling when recording the committed answers. */
  val RecordCeilingSeconds = 3600
  /** Untimed queries before the timed loop, so it measures JIT-compiled code. */
  val WarmupSeconds = 2.0
  /** Time cap of the enumeration check of one answer, on seeds without committed answers. */
  val OracleBudgetMs = 25L
  /** The same cap when recording the committed answers, where time matters less. */
  val RecordOracleBudgetMs = 500L
  /** Time limit of one core query. No query of R1 at θ ≤ 10 seen took over 0.6 s;
    * queries that run into EEV's unbudgeted stage 3 run for minutes.
    */
  val QueryLimitSeconds = 10
  /** Time limit of the traced run's `dist/` sample, after which its jobs are cancelled. */
  val DistBudgetSeconds = 70

  def main(args: Array[String]): Unit = {
    val code = try run(Options.parse(args)) catch {
      case e: Throwable => e.printStackTrace(); 1
    }
    System.out.flush()
    sys.exit(code) // also ends a stopped query's thread
  }

  private def nanos(seconds: Double): Long = (seconds * 1e9).toLong

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def usedHeapAfterGc(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  def startSpark(): SparkSession = {
    val cores = math.min(Runtime.getRuntime.availableProcessors, 4)
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
  }

  /** The calls of `DatasetSpec.generateCore`, one at a time: the graph, and the time
    * the collect ended, so generation and the graph build are timed apart. The
    * collected rows die with this frame, so they do not count towards the graph's heap.
    */
  private def generateCore(spark: SparkSession, spec: DatasetSpec): (TemporalGraph, Long) = {
    val rows      = GraphDF.canon(spec.generate(spark)).collect()
    val collected = System.nanoTime()
    val edges     = rows.map(r => TEdge(r.getLong(0).toInt, r.getLong(1).toInt, r.getLong(2).toInt))
    (TemporalGraph((spec.n + 1).toInt, edges), collected)
  }

  /** Generates the dataset, builds the graph and draws the query pool. */
  def setUp(spark: SparkSession, w: BenchWorkload, seed: Long): SetUp = {
    val heap0   = usedHeapAfterGc()
    val t0      = System.nanoTime()
    val (g, t1) = generateCore(spark, w.spec)
    val t2      = System.nanoTime()
    val pool = Workload.queries(g, w.theta, w.poolSize, seed)
    val t3   = System.nanoTime()
    val heapMb = Stats.mb((usedHeapAfterGc() - heap0).toDouble)
    SetUp(g, pool, (t3 - t0) / 1e9, (t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, heapMb)
  }

  def run(o: Options): Int = {
    val w = o.workload
    val startMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val ceilingSeconds = if (o.record) RecordCeilingSeconds else CeilingSeconds
    val ceilingAt = System.nanoTime() +
      (startMs + ceilingSeconds * 1000L - System.currentTimeMillis()) * 1000000L
    val runner = new QueryRunner(ceilingAt, nanos(QueryLimitSeconds))
    val out    = new Outcomes
    val perLayer = new Metrics

    val spark   = startSpark()
    val counter = new JobCounter
    spark.sparkContext.addSparkListener(counter)
    val timings = ArrayBuffer.empty[SetUp]
    var last: SetUp = null
    for (_ <- 1 to (if (o.record) 1 else SetupReps)) {
      last = null // the previous graph must not count towards this set-up's heap
      last = setUp(spark, w, o.seed)
      timings += last.copy(g = null, pool = null)
    }
    val SetUp(g, pool, _, _, _, _, _) = last
    last = null
    println(s"perfbench ${w.name}: ${w.dataset} n=${g.n} m=${g.m} θ=${w.theta} seed=${o.seed} " +
      s"pool=${pool.length} seconds=${o.seconds} trace=${if (o.trace) 1 else 0}")

    // Every traced run reports the dist metrics; without a sample they read 0.
    if (o.trace)
      perLayer ++= (if (w.distSample) distSample(spark, counter, runner, g, pool.head, out)
                    else DistTrace.metrics(Nil, 0.0))
    spark.stop()

    val committedFile = AnswerFile.path(o.answers, w.name, o.seed)
    val committed =
      if (!o.record && Files.exists(committedFile))
        Some(AnswerFile.read(committedFile))
      else None
    val oracleMs = if (o.record) RecordOracleBudgetMs else OracleBudgetMs
    val check = new AnswerCheck(g, pool, committed, oracleMs * 1000000L)

    if (o.record) return record(g, pool, check, runner, committedFile, out)

    // Warm-up: untimed, unchecked.
    var warmNs = 0L
    var k = 0
    while (warmNs < nanos(WarmupSeconds) && !runner.stuck) {
      val t0 = System.nanoTime()
      runner.query(Vug.run(g, pool(k % pool.length)))
      warmNs += System.nanoTime() - t0
      k += 1
    }

    // Timed closed loop: one query at a time until `seconds` of query time are spent.
    val executed = ArrayBuffer.empty[(Int, Long)] // (pool index, query nanos)
    val gc0  = gcMillis()
    var busy = 0L
    var i    = 0
    while (busy < nanos(o.seconds) && !runner.stuck) {
      val idx = i % pool.length
      val q   = pool(idx)
      out.attempted += 1
      val w0 = System.nanoTime()
      val result = runner.query { val t0 = System.nanoTime(); val r = Vug.run(g, q); (r, System.nanoTime() - t0) }
      busy += System.nanoTime() - w0 // the answer check below is not query time
      result match {
        case Some(Success((r, ns))) =>
          executed += ((idx, ns))
          check.check(idx, r).foreach(out.fail(q, _))
        case Some(Failure(e)) => out.fail(q, s"threw $e")
        case None             => out.fail(q, "stopped at its time limit")
      }
      i += 1
    }
    val gcMs = gcMillis() - gc0
    if (executed.isEmpty) {
      Console.err.println(s"perfbench: no query completed; ${out.problems.take(5).mkString("; ")}")
      return 1
    }

    val latMs = executed.map(e => Stats.ms(e._2.toDouble))
    val e2e = new Metrics
    e2e("query_p50_ms", "ms")   = Stats.median(latMs)
    e2e("query_p90_ms", "ms")   = Stats.percentile(latMs, 0.9)
    e2e("queries_per_s", "1/s") = executed.length / (latMs.sum / 1e3)
    e2e("setup_s", "s")         = Stats.median(timings.map(_.totalS))
    e2e("graph_heap_mb", "MB")  = Stats.median(timings.map(_.heapMb))

    if (o.trace) {
      perLayer("setup.generate_s", "s")    = Stats.median(timings.map(_.generateS))
      perLayer("setup.graph_build_s", "s") = Stats.median(timings.map(_.buildS))
      perLayer("setup.workload_s", "s")    = Stats.median(timings.map(_.workloadS))
      perLayer ++= tracedPass(g, pool, executed.toSeq, check, runner, out)
      perLayer("jvm.gc_ms", "ms") = gcMs.toDouble
    }

    val failedFrac = out.failed.toDouble / out.attempted
    println(s"end-to-end (${executed.length} timed queries, ${out.attempted} attempted):")
    e2e.lines.foreach(println)
    println(f"  ${"failed_frac"}%-32s $failedFrac%16.6f ratio")
    println(s"  answer checks: ${check.oracleComplete} by complete enumeration, " +
      s"${check.oracleCapped} by capped enumeration, " +
      s"${if (committed.isDefined) s"rest by the digests in $committedFile" else "no committed digests"}")
    if (o.trace) { println("per-layer:"); perLayer.lines.foreach(println) }
    out.problems.take(20).foreach(p => Console.err.println(s"perfbench: FAILED $p"))
    val metrics = if (o.trace) perLayer else e2e
    // A query that threw or was stopped is an operation that failed: the run is not correct.
    println(s"""{"correct": ${out.failed == 0}, "attempted": ${out.attempted}, """ +
      s""""failed": ${out.failed}, "metrics": ${metrics.json}}""")
    0
  }

  /** Replays the timed queries through [[CoreTrace]], in the same order, and compares
    * each answer with the untraced one.
    */
  private def tracedPass(g: TemporalGraph, pool: IndexedSeq[TspgQuery],
                         executed: Seq[(Int, Long)], check: AnswerCheck,
                         runner: QueryRunner, out: Outcomes): Metrics = {
    val spans = ArrayBuffer.empty[CoreSpan]
    var untracedNs = 0L
    var tracedNs   = 0L
    for ((idx, ns) <- executed if !runner.stuck) {
      val q = pool(idx)
      out.attempted += 1
      runner.query { val t0 = System.nanoTime(); val r = CoreTrace.run(g, q); (r, System.nanoTime() - t0) } match {
        case Some(Success(((tspg, span), tns))) =>
          spans += span
          untracedNs += ns
          tracedNs += tns
          check.repeatCheck(idx, tspg).foreach(out.fail(q, _))
        case Some(Failure(e)) => out.fail(q, s"threw $e (traced)")
        case None             => out.fail(q, "stopped at its time limit (traced)")
      }
    }
    val m = if (spans.isEmpty) new Metrics else CoreTrace.metrics(g, spans.toSeq)
    m("trace.queries", "count")        = spans.length
    m("trace.untraced_total_ms", "ms") = Stats.ms(untracedNs.toDouble)
    m("trace.traced_total_ms", "ms")   = Stats.ms(tracedNs.toDouble)
    m("trace.phase_sum_ms", "ms")      = Stats.ms(spans.map(_.phaseNs.toDouble).sum)
    m("trace.overhead_frac", "ratio")  = Stats.ratio(tracedNs.toDouble, untracedNs.toDouble) - 1
    m
  }

  /** One `DistVug` query traced phase by phase, checked against `Vug` on the same
    * graph: equal Gt, equal tspG.
    */
  private def distSample(spark: SparkSession, counter: JobCounter, runner: QueryRunner,
                         g: TemporalGraph, q: TspgQuery, out: Outcomes): Metrics = {
    val t0 = System.nanoTime()
    val edges = GraphDF.fromCore(spark, g).cache()
    edges.count()
    val cacheS = (System.nanoTime() - t0) / 1e9
    out.attempted += 1
    val deadline = math.min(runner.ceilingAt, System.nanoTime() + nanos(DistBudgetSeconds))
    val result = runner(deadline, _ => spark.sparkContext.cancelAllJobs()) {
      DistTrace.run(spark, counter, edges, q)
    }
    val spans = result match {
      case Some(Success(span)) =>
        runner.query(Vug.run(g, q)) match {
          case Some(Success(core)) =>
            if (span.gt != core.gt.edgeSet) out.fail(q, "dist Gt differs from core Gt")
            else if (span.tspg.edges != core.tspg.edges)
              out.fail(q, "dist tspG differs from core tspG")
          case other => out.fail(q, s"core reference run failed: $other")
        }
        Seq(span)
      case Some(Failure(e)) => out.fail(q, s"dist threw $e"); Nil
      case None             => out.fail(q, "dist stopped at its time limit"); Nil
    }
    edges.unpersist()
    println(s"dist sample: $q")
    DistTrace.metrics(spans, cacheS)
  }

  /** Runs every pool query once, checks it by enumeration, and writes the digests. */
  private def record(g: TemporalGraph, pool: IndexedSeq[TspgQuery], check: AnswerCheck,
                     runner: QueryRunner, file: Path, out: Outcomes): Int = {
    for ((q, idx) <- pool.zipWithIndex if !runner.stuck) {
      out.attempted += 1
      runner.query(Vug.run(g, q)) match {
        case Some(Success(r)) => check.check(idx, r).foreach(out.fail(q, _))
        case other            => out.fail(q, s"did not complete: $other")
      }
    }
    out.problems.foreach(p => Console.err.println(s"perfbench: FAILED $p"))
    if (out.failed > 0) return 1
    Files.createDirectories(file.getParent)
    AnswerFile.write(file, pool.indices.map(i => (pool(i), check.digest(i))))
    println(s"wrote ${pool.length} answers to $file (${check.oracleComplete} complete, " +
      s"${check.oracleCapped} capped enumeration checks)")
    0
  }
}
