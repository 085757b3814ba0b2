package repro.perfbench

import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Profile
import repro.perfbench.Check.Outputs

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The benchmark's JVM side. One process runs one workload from one seed:
  *
  *  1. set-up: start Spark, generate the input, write it to Parquet and
  *     read it back (three times, median reported), then two warm-up runs:
  *     `SparkERPipeline.run` itself, whose answer every later run must
  *     repeat, and one untraced run;
  *  2. the measured loop, closed with one client: untraced runs back to
  *     back, started until `--seconds` have passed; with `--trace 1` a
  *     traced run follows each untraced one;
  *  3. checks, outside the timed region: each run's answer against the
  *     warm-up's and, when the seed is listed, against `expected.tsv`.
  *
  * The last line of standard output is one JSON object: end-to-end metrics
  * with `--trace 0`, per-layer metrics with `--trace 1`.
  */
object Bench {

  /** Fixed execution environment, the same for every workload. */
  val Master = "local[4]"
  val ShufflePartitions = 4
  val SetupRepeats = 3

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      workDir: Path,
      expected: Option[Path])

  def parseArgs(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      workDir = Paths.get(need("work-dir")).toAbsolutePath,
      expected = kv.get("expected").map(Paths.get(_)))
  }

  def session(workDir: Path): SparkSession = {
    val s = SparkSession.builder
      .master(Master)
      .appName("sparker-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Expected outputs per (workload, seed), as recorded at the baseline. */
  def loadExpected(path: Option[Path]): Map[(String, Long), Outputs] =
    path.filter(Files.exists(_)).toSeq.flatMap { p =>
      Files.readAllLines(p).asScala.map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
        .map { l =>
          val f = l.split("\t").toSeq
          (f(0), f(1).toLong) -> Outputs.fromTsv(f.drop(2))
        }
    }.toMap

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Every digit as measured; a NaN or infinity throws rather than print. */
  private def fmt(x: Double): String = java.math.BigDecimal.valueOf(x).toPlainString

  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${fmt(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** Generates a workload's input, writes it to Parquet under `dir` and
    * reads it back, as a user would load it: (profiles, ground truth).
    */
  def load(spark: SparkSession, workload: Workloads.Workload, seed: Long, dir: Path)
      : (Dataset[Profile], DataFrame) = {
    import spark.implicits._
    val ds = workload.generate(spark, seed)
    ds.profiles.write.mode("overwrite").parquet(dir.resolve("profiles").toString)
    ds.groundTruth.write.mode("overwrite").parquet(dir.resolve("truth").toString)
    val profiles = spark.read.parquet(dir.resolve("profiles").toString).as[Profile]
    val truth = spark.read.parquet(dir.resolve("truth").toString)
    profiles.count()
    truth.count()
    (profiles, truth)
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val workload = Workloads.byName(args.workload)
    val cfg = workload.cfg
    val expected = loadExpected(args.expected).get((workload.name, args.seed))

    val (spark, sessionS) = time(session(args.workDir))
    val listener = new LayerListener
    spark.sparkContext.addSparkListener(listener)
    val runs = new Runs(spark, listener)

    // Set-up: generate, write Parquet, read back. Repeated; median reported.
    val loads = (0 until SetupRepeats).map { i =>
      time(load(spark, workload, args.seed, args.workDir.resolve(s"input-$i")))
    }
    val (profiles, truth) = loads.last._1
    val nProfiles = profiles.count()
    var attempted = 0
    var failed = 0
    val problems = Seq.newBuilder[String]
    /** One pipeline run; a run that throws or fails `ok` counts as failed. */
    def attempt[A](what: String)(run: => A)(ok: A => Boolean): Option[A] = {
      attempted += 1
      val a = try Some(run) catch {
        case NonFatal(e) =>
          problems += s"$what threw ${e.getClass.getName}: ${e.getMessage}"
          None
      }
      val good = a.filter(ok)
      if (good.isEmpty) failed += 1
      good
    }

    // Warm-up: the real `SparkERPipeline.run`, whose answer every later run
    // must repeat, then one untraced run whose time is not reported.
    val warmupStart = System.nanoTime()
    val reference = attempt("SparkERPipeline.run")(runs.viaRun(profiles, cfg)) { out =>
      val ok = expected.forall(_ == out)
      if (!ok) problems += s"SparkERPipeline.run gave ${out.tsv}, expected ${expected.get.tsv}"
      ok
    }
    def check(what: String, out: Outputs): Boolean = {
      val ok = reference.contains(out)
      if (!ok) problems += s"$what gave ${out.tsv}, SparkERPipeline.run gave ${reference.map(_.tsv)}"
      ok
    }
    val warmupRun = attempt("warm-up run")(runs.untraced(profiles, cfg))(u => check("warm-up run", u.outputs))
    val warmupS = (System.nanoTime() - warmupStart) / 1e9
    val setupS = sessionS + median(loads.map(_._2)) + warmupS

    // Measured loop: closed, one client. Runs start until `--seconds` have
    // passed, so the last one ends after that.
    val untraced = Seq.newBuilder[Runs.Untraced]
    val traced = Seq.newBuilder[Runs.Traced]
    val loopStart = System.nanoTime()
    def elapsed = (System.nanoTime() - loopStart) / 1e9
    while (reference.isDefined && elapsed < args.seconds) {
      attempt("untraced run")(runs.untraced(profiles, cfg))(u => check("untraced run", u.outputs))
        .foreach(untraced += _)
      if (args.trace) {
        attempt("traced run")(runs.traced(profiles, cfg)) { t =>
          if (!t.broadcastAgrees) problems += "metablocking_bc candidates differ from metablocking"
          check("traced run", t.outputs) && t.broadcastAgrees
        }.foreach(traced += _)
      }
    }
    val us = untraced.result()
    val ts = traced.result()

    val checksStart = System.nanoTime()
    val metrics: Seq[(String, Double, String)] =
      if (us.isEmpty || (args.trace && ts.isEmpty)) Seq.empty
      else if (args.trace) layerMetrics(ts, median(us.map(_.pipelineS)))
      else endToEnd(us, truth, setupS, nProfiles, problems)

    val checksS = (System.nanoTime() - checksStart) / 1e9
    val ps = (warmupRun.toSeq ++ us).map(_.pipelineS)
    Console.err.println(s"workload=${workload.name} seed=${args.seed} trace=${if (args.trace) 1 else 0} " +
      s"answer=${reference.map(_.tsv.replace('\t', ' '))} listed in expected.tsv: ${expected.isDefined}")
    Console.err.println(f"setup: session ${sessionS}%.3f s, input ${median(loads.map(_._2))}%.3f s " +
      f"(median of $SetupRepeats), warm-up runs ${warmupS}%.3f s; measured ${elapsed}%.3f s; " +
      f"quality and checks ${checksS}%.3f s")
    if (us.nonEmpty) Console.err.println(
      f"pipeline_s: n=${us.size} median=${median(us.map(_.pipelineS))}%.3f " +
        f"max=${us.map(_.pipelineS).max}%.3f; " +
        f"drift from the warm-up run to the last run ${ps.last / ps.head - 1}%.4f")
    problems.result().foreach(p => Console.err.println(s"FAILED: $p"))
    metrics.foreach { case (n, v, u) => println(f"$n%-36s ${fmt(v)}%s $u") }
    println(json(failed == 0 && metrics.nonEmpty, attempted, failed, metrics))
    spark.stop()
  }

  /** End-to-end metrics from untraced runs; quality from the last one. */
  def endToEnd(
      us: Seq[Runs.Untraced],
      truth: DataFrame,
      setupS: Double,
      nProfiles: Long,
      problems: scala.collection.mutable.Builder[String, Seq[String]]): Seq[(String, Double, String)] = {
    val last = us.last
    val entityOf = last.clusters.select("pid", "entityId").collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    val gt = Check.pairs(truth.select(col("idA") as "p1", col("idB") as "p2"))
    val q = Check.quality(last.candidatePairs, entityOf, gt)
    // Structural invariants, independent of any recorded value.
    val stray = last.matchPairs.toSet -- last.candidatePairs
    if (stray.nonEmpty) problems += s"${stray.size} matches are not candidates"
    if (last.weakMatches > 0) problems += s"${last.weakMatches} matches score below the threshold"
    if (entityOf.size != nProfiles) problems += s"clusters hold ${entityOf.size} of $nProfiles profiles"
    Seq(
      ("pipeline_s", median(us.map(_.pipelineS)), "s"),
      ("candidates_s", median(us.map(_.candidatesS)), "s"),
      ("setup_s", setupS, "s"),
      ("shuffle_write_mb", median(us.map(_.shuffleWriteMb)), "MB"),
      ("driver_result_mb", median(us.map(_.driverResultMb)), "MB"),
      ("candidate_recall", q.candidateRecall, "ratio"),
      ("candidate_precision", q.candidatePrecision, "ratio"),
      ("cluster_f1", q.clusterF1, "ratio"))
  }

  /** Per-layer metrics: medians over the traced runs. */
  def layerMetrics(ts: Seq[Runs.Traced], untracedPipelineS: Double): Seq[(String, Double, String)] = {
    def med(f: Runs.Traced => Double) = median(ts.map(f))
    def layer(t: Runs.Traced, name: String) = t.layers.find(_.layer == name).get
    val perLayer = Runs.Layers.flatMap { l =>
      def m(metric: String, unit: String)(f: Tracer.LayerStats => Double) =
        (s"$l.$metric", med(t => f(layer(t, l))), unit)
      Seq(
        m("wall_s", "s")(_.wallS),
        m("busy_s", "s")(_.busyS),
        m("driver_s", "s")(_.driverS),
        m("jobs", "count")(_.group.jobs.toDouble),
        m("executor_cpu_s", "s")(_.group.executorCpuNs / 1e9),
        m("shuffle_write_mb", "MB")(_.group.shuffleWriteBytes / 1e6),
        m("shuffle_read_mb", "MB")(_.group.shuffleReadBytes / 1e6),
        m("spill_mb", "MB")(_.group.spillBytes / 1e6),
        m("result_mb", "MB")(_.group.resultBytes / 1e6),
        (s"$l.rows_out", med(_.rowsOut(l).toDouble), "count"))
    }
    val counts = ts.head.counts.keys.toSeq.sorted.map { k =>
      (k, med(_.counts(k)), if (k.endsWith("_ratio")) "ratio" else "count")
    }
    val spansS = med(_.layers.filter(_.layer != "metablocking_bc").map(_.wallS).sum)
    perLayer ++ counts ++ Seq(
      ("trace.spans_s", spansS, "s"),
      ("trace.untraced_pipeline_s", untracedPipelineS, "s"),
      ("trace.overhead_s", spansS - untracedPipelineS, "s"))
  }
}

/** Prints the `expected.tsv` lines for every workload and the given seeds:
  * what `SparkERPipeline.run` outputs at this commit.
  * Arguments: `--work-dir DIR SEED...`.
  */
object Record {
  def main(argv: Array[String]): Unit = {
    val workDir = Paths.get(argv(1)).toAbsolutePath
    val seeds = argv.drop(2).map(_.toLong)
    val spark = Bench.session(workDir)
    val runs = new Runs(spark, new LayerListener)
    for (w <- Workloads.all; seed <- seeds) {
      val (profiles, _) = Bench.load(spark, w, seed, workDir.resolve(s"${w.name}-$seed"))
      println(s"${w.name}\t$seed\t${runs.viaRun(profiles, w.cfg).tsv}")
    }
    spark.stop()
  }
}
