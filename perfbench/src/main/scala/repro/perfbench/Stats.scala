package repro.perfbench

import scala.collection.mutable

/** Order statistics over samples, plus the named metrics a run reports. */
object Stats {

  /** Nearest-rank percentile (`p` in (0, 1]) of a non-empty sample. */
  def percentile(xs: Iterable[Double], p: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "percentile of an empty sample")
    s(math.max(0, math.ceil(p * s.length).toInt - 1))
  }

  def median(xs: Iterable[Double]): Double = percentile(xs, 0.5)

  def ms(nanos: Double): Double = nanos / 1e6

  def mb(bytes: Double): Double = bytes / (1024.0 * 1024.0)

  /** `num / den`, or 0 when `den` is 0 (an empty base). */
  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den
}

/** Metrics of one run, in the order they were added. */
final class Metrics {
  private val entries = mutable.LinkedHashMap.empty[String, (Double, String)]

  def update(name: String, unit: String, value: Double): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is not finite: $value")
    entries(name) = (value, unit)
  }

  def ++=(other: Metrics): Unit = entries ++= other.entries

  def lines: Iterable[String] = entries.map { case (n, (v, u)) => f"  $n%-32s $v%16.6f $u" }

  def json: String =
    entries.map { case (n, (v, u)) => s""""$n": {"value": $v, "unit": "$u"}""" }
      .mkString("{", ", ", "}")
}
