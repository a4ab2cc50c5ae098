package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.security.MessageDigest

import scala.jdk.CollectionConverters._

import repro.core.{PathEnum, Subgraph, TEdge, TemporalGraph, TspgQuery, VugResult}

/** Order-independent fingerprint of an answer: edge count plus a SHA-256 prefix of the
  * edges sorted by `(ts, src, dst)`.
  */
object Digest {
  def of(tspg: Subgraph): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val sorted = tspg.edges.toArray.sortBy(e => (e.ts, e.src, e.dst))
    sorted.foreach(e => md.update(s"${e.src},${e.dst},${e.ts};".getBytes(StandardCharsets.US_ASCII)))
    s"${sorted.length}:" + md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}

/** Committed answers for one workload and seed: one line per pool query,
  * `index s t tauB tauE digest`, tab-separated.
  */
object AnswerFile {
  /** `<dir>/<workload>/<seed>.tsv` */
  def path(dir: Path, workload: String, seed: Long): Path =
    dir.resolve(workload).resolve(s"$seed.tsv")

  def read(path: Path): IndexedSeq[(TspgQuery, String)] =
    Files.readAllLines(path).asScala.toIndexedSeq.filter(_.trim.nonEmpty).map { line =>
      val f = line.split('\t')
      (TspgQuery(f(1).toInt, f(2).toInt, f(3).toInt, f(4).toInt), f(5))
    }

  def write(path: Path, rows: IndexedSeq[(TspgQuery, String)]): Unit =
    Files.write(path, rows.zipWithIndex.map { case ((q, d), i) =>
      s"$i\t${q.s}\t${q.t}\t${q.tauB}\t${q.tauE}\t$d"
    }.asJava)
}

/** Checks every answer of a run, outside the timed loop.
  *
  * The first answer to each pool query must satisfy `∅ ≠ tspG ⊆ Gt ⊆ Gq ⊆ window` and
  * match either the committed digest (seeds with committed answers) or `PathEnum.run`
  * on `Gt` under a time cap (any other seed). A complete enumeration must equal tspG exactly; a capped
  * one must be contained in it. Every later answer to the same query, traced or not,
  * must repeat the first answer's digest.
  */
final class AnswerCheck(g: TemporalGraph, pool: IndexedSeq[TspgQuery],
                        committed: Option[IndexedSeq[(TspgQuery, String)]],
                        oracleBudgetNs: Long) {

  private val digests = new Array[String](pool.length)
  var oracleComplete = 0
  var oracleCapped   = 0

  /** `None` when the answer to `pool(i)` is correct, else the reason it is not. */
  def check(i: Int, r: VugResult): Option[String] =
    if (digests(i) != null) repeatCheck(i, r.tspg)
    else {
      val d = Digest.of(r.tspg)
      val problem = structural(pool(i), r).orElse(committed match {
        case Some(rows) if i < rows.length =>
          if (rows(i)._1 != pool(i)) Some(s"committed answer file lists ${rows(i)._1}")
          else if (rows(i)._2 != d) Some(s"digest $d, committed ${rows(i)._2}")
          else None
        case _ => oracle(pool(i), r)
      })
      if (problem.isEmpty) digests(i) = d
      problem
    }

  /** `None` when `tspg` repeats the checked first answer to `pool(i)`. */
  def repeatCheck(i: Int, tspg: Subgraph): Option[String] = {
    val d = Digest.of(tspg)
    if (digests(i) == null) Some("no checked first answer to compare with")
    else if (d == digests(i)) None
    else Some(s"digest $d differs from the first answer ${digests(i)}")
  }

  def digest(i: Int): String = digests(i)

  private def structural(q: TspgQuery, r: VugResult): Option[String] = {
    def inGraph(e: TEdge): Boolean =
      e.ts >= q.tauB && e.ts <= q.tauE && Window.contains(g, e)
    if (r.tspg.isEmpty) Some("empty tspG on a reachable query")
    else if (!r.tspg.edges.forall(r.gt.contains)) Some("tspG is not contained in Gt")
    else if (!r.gt.edges.forall(r.gq.contains)) Some("Gt is not contained in Gq")
    else if (!r.gq.edges.forall(inGraph)) Some("Gq is not contained in the window")
    else None
  }

  private def oracle(q: TspgQuery, r: VugResult): Option[String] = {
    val e = PathEnum.run(r.gt, q, timeBudgetNs = oracleBudgetNs)
    if (e.complete) {
      oracleComplete += 1
      if (e.subgraph.edges == r.tspg.edges) None
      else Some(s"tspG has ${r.tspg.edgeCount} edges, enumeration on Gt ${e.subgraph.edgeCount}")
    } else {
      oracleCapped += 1
      if (e.subgraph.edges.subsetOf(r.tspg.edges)) None
      else Some("capped enumeration on Gt found an edge missing from tspG")
    }
  }
}

/** The query window `[τb, τe]` located by binary search over the ts-sorted edge array. */
object Window {

  /** First index in `g.edges` whose `(ts, src, dst)` is not below the given key. */
  private def lowerBound(g: TemporalGraph, ts: Int, src: Int, dst: Int): Int = {
    var lo = 0
    var hi = g.edges.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val e   = g.edges(mid)
      val below = e.ts < ts || (e.ts == ts && (e.src < src || (e.src == src && e.dst < dst)))
      if (below) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Number of edges with `ts` in `[τb, τe]`. */
  def size(g: TemporalGraph, q: TspgQuery): Int =
    lowerBound(g, q.tauE + 1, Int.MinValue, Int.MinValue) -
      lowerBound(g, q.tauB, Int.MinValue, Int.MinValue)

  def contains(g: TemporalGraph, e: TEdge): Boolean = {
    val i = lowerBound(g, e.ts, e.src, e.dst)
    i < g.edges.length && g.edges(i) == e
  }
}
