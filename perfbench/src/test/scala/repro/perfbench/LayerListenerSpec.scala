package repro.perfbench

import java.util.concurrent.CountDownLatch

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BlockPurging, Profiles, TokenBlocking}
import repro.data.ERData
import repro.perfbench.LayerListener.{unionMs, Interval}

class LayerListenerSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder
    .master("local[4]")
    .appName("perfbench-listener-spec")
    .config("spark.sql.shuffle.partitions", 2L)
    .config("spark.ui.enabled", false)
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private def traced(): (Tracer, LayerListener) = {
    val l = new LayerListener
    spark.sparkContext.addSparkListener(l)
    (new Tracer(spark, l), l)
  }

  test("union of intervals counts overlapping time once") {
    assert(unionMs(Seq.empty) == 0)
    assert(unionMs(Seq(Interval(0, 10), Interval(5, 15), Interval(20, 25))) == 20)
    assert(unionMs(Seq(Interval(20, 25), Interval(0, 30))) == 30)
    assert(unionMs(Seq(Interval(0, 10), Interval(10, 20))) == 20)
    assert(Interval(0, 10).clip(Interval(5, 30)).contains(Interval(5, 10)))
    assert(Interval(0, 10).clip(Interval(10, 30)).isEmpty)
  }

  test("a span with no jobs is all driver time") {
    val (tr, l) = traced()
    val ds = ERData.abtBuy(spark, 20, 2, 2, seed = 3L)
    tr.span("lazy") { TokenBlocking.schemaAgnostic(Profiles.toKV(ds.profiles)) }
    val Seq(s) = tr.report()
    assert(s.group.jobs == 0)
    assert(s.busyS == 0.0)
    assert(s.driverS == s.wallS)
    spark.sparkContext.removeSparkListener(l)
  }

  test("stage work is billed to the span that ran it") {
    val (tr, l) = traced()
    val ds = ERData.abtBuy(spark, 20, 2, 2, seed = 3L)
    val n = ds.profiles.count() // outside any span
    val raw = tr.span("blocks") {
      val r = TokenBlocking.schemaAgnostic(Profiles.toKV(ds.profiles)).cache()
      r.count()
      r
    }
    tr.span("purge") { BlockPurging.purge(raw, n).collect() }
    val Seq(blocks, purge) = tr.report()
    for (s <- Seq(blocks, purge)) {
      assert(s.group.jobs >= 1, s.layer)
      assert(s.group.executorCpuNs > 0, s.layer)
      assert(s.group.shuffleWriteBytes > 0, s.layer)
      assert(s.group.shuffleReadBytes > 0, s.layer)
      assert(s.group.resultBytes > 0, s.layer)
      assert(s.busyS > 0 && s.busyS <= s.wallS, s.layer)
      assert(s.driverS >= 0, s.layer)
    }
    // Collecting every purged assignment sends more to the driver than a count.
    assert(purge.group.resultBytes > blocks.group.resultBytes)
    assert(l.group(LayerListener.NoGroup, Interval(0, Long.MaxValue)).jobs >= 1)
    raw.unpersist()
    spark.sparkContext.removeSparkListener(l)
  }

  test("overlapping jobs in one span count their shared time once") {
    val (tr, l) = traced()
    val sleepMs = 600L
    tr.span("overlap") {
      val start = new CountDownLatch(1)
      // Threads started inside the span inherit its job group.
      val threads = (0 until 2).map { _ =>
        new Thread(() => {
          start.await()
          spark.sparkContext.parallelize(0 until 2, 2).map { x => Thread.sleep(sleepMs); x }.count()
        })
      }
      threads.foreach(_.start())
      start.countDown()
      threads.foreach(_.join())
    }
    val Seq(s) = tr.report()
    assert(s.group.jobs == 2)
    assert(s.group.busyMs >= sleepMs)
    assert(s.group.busyMs < 2 * sleepMs, "the two jobs ran side by side")
    assert(s.driverS >= 0)
    spark.sparkContext.removeSparkListener(l)
  }
}
