package repro.perfbench

import org.apache.spark.scheduler._

import scala.collection.mutable

/** Attributes Spark jobs and task metrics to the job group that was set on
  * the driver thread when each job started. The benchmark sets one job group
  * per layer call (traced run) or per pipeline run (untraced run), so the
  * totals here are per layer or per run.
  *
  * Listener events arrive asynchronously: call [[LayerListener.drain]]
  * before reading the totals.
  */
final class LayerListener extends SparkListener {
  import LayerListener._

  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobStart = mutable.Map.empty[Int, (String, Long)]
  private val totals = mutable.Map.empty[String, GroupTotals]

  private def groupOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty(JobGroupProperty))).getOrElse(NoGroup)

  private def totalsOf(group: String): GroupTotals =
    totals.getOrElseUpdate(group, new GroupTotals)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = groupOf(e.properties)
    e.stageInfos.foreach(s => stageGroup.getOrElseUpdate(s.stageId, g))
    jobStart(e.jobId) = (g, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (g, t0) =>
      totalsOf(g).jobs += Interval(t0, e.time)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      val t = totalsOf(stageGroup.getOrElse(e.stageId, NoGroup))
      t.executorCpuNs += m.executorCpuTime
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      t.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
      t.resultBytes += m.resultSize
    }
  }

  /** Totals of one job group, with its busy time clipped to `within`. */
  def group(name: String, within: Interval): GroupStats = synchronized {
    val t = totals.getOrElse(name, new GroupTotals)
    GroupStats(
      jobs = t.jobs.size,
      busyMs = unionMs(t.jobs.toSeq.flatMap(_.clip(within))),
      executorCpuNs = t.executorCpuNs,
      shuffleWriteBytes = t.shuffleWriteBytes,
      shuffleReadBytes = t.shuffleReadBytes,
      spillBytes = t.spillBytes,
      resultBytes = t.resultBytes)
  }

  /** Forget every group, so a reused group name starts from zero. */
  def reset(): Unit = synchronized {
    stageGroup.clear(); jobStart.clear(); totals.clear()
  }
}

object LayerListener {

  /** The local property `SparkContext.setJobGroup` sets. */
  val JobGroupProperty = "spark.jobGroup.id"

  /** Group of jobs started with no job group set. */
  val NoGroup = "<none>"

  /** A closed interval of wall-clock milliseconds. */
  final case class Interval(startMs: Long, endMs: Long) {
    def clip(other: Interval): Option[Interval] = {
      val (s, e) = (math.max(startMs, other.startMs), math.min(endMs, other.endMs))
      if (s < e) Some(Interval(s, e)) else None
    }
  }

  /** Length of the union of the intervals: overlapping jobs count once. */
  def unionMs(intervals: Seq[Interval]): Long = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    intervals.sortBy(_.startMs).foreach { iv =>
      if (iv.startMs > curE) {
        if (curE > curS) total += curE - curS
        curS = iv.startMs; curE = iv.endMs
      } else curE = math.max(curE, iv.endMs)
    }
    if (curE > curS) total += curE - curS
    total
  }

  final class GroupTotals {
    val jobs = mutable.ArrayBuffer.empty[Interval]
    var executorCpuNs = 0L
    var shuffleWriteBytes = 0L
    var shuffleReadBytes = 0L
    var spillBytes = 0L
    var resultBytes = 0L
  }

  final case class GroupStats(
      jobs: Int,
      busyMs: Long,
      executorCpuNs: Long,
      shuffleWriteBytes: Long,
      shuffleReadBytes: Long,
      spillBytes: Long,
      resultBytes: Long)
}
