package repro.perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession
import repro.perfbench.LayerListener.{GroupStats, Interval}

import scala.collection.mutable

/** Records one span per call into a layer: the call runs under a job group
  * named after the layer, so the [[LayerListener]] attributes its jobs and
  * task metrics to that layer.
  */
final class Tracer(spark: SparkSession, listener: LayerListener) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]

  def span[A](layer: String)(body: => A): A = {
    val sc = spark.sparkContext
    sc.setJobGroup(layer, layer, interruptOnCancel = false)
    val w0 = System.currentTimeMillis()
    val t0 = System.nanoTime()
    try body
    finally {
      val wallS = (System.nanoTime() - t0) / 1e9
      spans += Span(layer, Interval(w0, System.currentTimeMillis()), wallS)
      sc.clearJobGroup()
    }
  }

  /** Per-layer accounting of every span recorded so far. */
  def report(): Seq[LayerStats] = {
    ListenerBusDrain(spark.sparkContext)
    spans.toSeq.map(s => LayerStats(s.layer, s.wallS, listener.group(s.layer, s.interval)))
  }
}

object Tracer {

  final case class Span(layer: String, interval: Interval, wallS: Double)

  final case class LayerStats(layer: String, wallS: Double, group: GroupStats) {
    /** Union of the layer's job intervals: overlapping jobs count once. */
    def busyS: Double = math.min(group.busyMs / 1e3, wallS)
    /** Wall time in which none of the layer's jobs ran. */
    def driverS: Double = wallS - busyS
  }
}
