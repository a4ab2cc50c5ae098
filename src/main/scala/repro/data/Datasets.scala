package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.core.TemporalGraph
import repro.dist.GraphDF

/** Statistics the paper reports for each dataset (its TABLE I, Appendix C). */
final case class PaperStats(nV: Long, nE: Long, nT: Long, d: Long, theta: Int)

/** One synthetic analogue of a paper dataset (DESIGN.md §2.3).
  *
  * @param id        our dataset id (R1..R10)
  * @param paperId   the paper's id (D1..D10) + source-graph name
  * @param n         generator vertex-universe size
  * @param mTarget   generator edge draw count (realized m is slightly lower)
  * @param nTs       timestamp-domain size |T| target
  * @param theta     default query-interval span (paper TABLE I, last column)
  * @param alpha     Zipf exponent for endpoint skew
  * @param paper     the original dataset's statistics (Table I bench output)
  */
final case class DatasetSpec(id: String, paperId: String, n: Long, mTarget: Long,
                             nTs: Long, theta: Int, alpha: Double, seed: Long,
                             paper: PaperStats) {
  def generate(spark: SparkSession): DataFrame =
    SynthData.temporalEdges(spark, n, mTarget, nTs, alpha, seed)

  def generateCore(spark: SparkSession): TemporalGraph =
    GraphDF.toCore(generate(spark), n = (n + 1).toInt)
}

/** The 10 synthetic analogues R1..R10 of the paper's D1..D10: R1–R4 at full vertex
  * scale, R5–R10 scaled down (1/2 … 1/24), with the paper's |T| and default θ. R8–R10
  * keep the dense-window property (large m·θ/|T|) that made the paper's enumeration
  * baselines hit the 12-hour INF cutoff.
  */
object Datasets {

  // Tiered scaling: D1–D4 are laptop-sized and reproduced at FULL vertex/edge scale;
  // the larger graphs are scaled down (D5 ×1/2 … D10 ×1/24) to bound bench memory and
  // wall-clock. |T| is always kept at the paper's value: the window density m·θ/|T|
  // is what separates the paper's easy datasets from its INF ones. Draw targets are
  // inflated ~1.3× over the intended edge count because (src, dst, ts) de-duplication
  // removes a sizeable fraction at these densities (realized counts in TABLE I).
  val all: IndexedSeq[DatasetSpec] = IndexedSeq(
    DatasetSpec("R1", "D1 email-Eu-core (full)", 1005, 450000, 803, 10, 1.05, 101,
      PaperStats(1005, 332334, 803, 9782, 10)),
    DatasetSpec("R2", "D2 sx-mathoverflow (full)", 88581, 660000, 2350, 20, 1.05, 102,
      PaperStats(88581, 506550, 2350, 5931, 20)),
    DatasetSpec("R3", "D3 sx-askubuntu (full)", 159316, 1260000, 2613, 20, 1.05, 103,
      PaperStats(159316, 964437, 2613, 8729, 20)),
    DatasetSpec("R4", "D4 sx-superuser (full)", 194085, 1880000, 2773, 20, 1.05, 104,
      PaperStats(194085, 1443339, 2773, 26996, 20)),
    DatasetSpec("R5", "D5 wiki-ru (1/2)", 228509, 1480000, 4715, 25, 1.05, 105,
      PaperStats(457018, 2282055, 4715, 188103, 25)),
    DatasetSpec("R6", "D6 wiki-de (1/4)", 129851, 2180000, 5599, 25, 1.05, 106,
      PaperStats(519404, 6729794, 5599, 395780, 25)),
    DatasetSpec("R7", "D7 wiki-talk (1/4)", 285037, 2550000, 2320, 20, 1.1, 107,
      PaperStats(1140149, 7833140, 2320, 264905, 20)),
    DatasetSpec("R8", "D8 flickr (1/12)", 191910, 3590000, 196, 10, 1.1, 108,
      PaperStats(2302926, 33140017, 196, 34174, 10)),
    DatasetSpec("R9", "D9 sx-stackoverflow (1/24)", 251011, 3440000, 2776, 20, 1.1, 109,
      PaperStats(6024271, 63497050, 2776, 101663, 20)),
    DatasetSpec("R10", "D10 wikipedia (1/24)", 90278, 4680000, 3787, 25, 1.1, 110,
      PaperStats(2166670, 86337879, 3787, 218465, 25)),
  )

  def byId(id: String): DatasetSpec =
    all.find(_.id == id).getOrElse(sys.error(s"unknown dataset $id"))
}
