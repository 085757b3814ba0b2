package repro.perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.clustering.EntityClusterer
import repro.core._
import repro.lsh.AttributePartitioner
import repro.matching.EntityMatcher
import repro.perfbench.Check.Outputs
import repro.perfbench.LayerListener.Interval
import repro.pipeline.SparkERPipeline
import repro.pipeline.SparkERPipeline.{PruningStrategy, SchemaMode, SparkERConfig}

/** One pipeline run, untraced or traced, on profiles already loaded. */
final class Runs(spark: SparkSession, listener: LayerListener) {
  import Runs._

  private val sc = spark.sparkContext

  /** The full stack through `SparkERPipeline.run`, materialised. */
  def viaRun(profiles: Dataset[Profile], cfg: SparkERConfig): Outputs = {
    spark.catalog.clearCache()
    val r = SparkERPipeline.run(profiles, cfg)
    val out = Outputs(Check.pairs(r.blocker.candidates), Check.pairs(r.matches),
      entityCount(r.clusters))
    spark.catalog.clearCache()
    out
  }

  /** An untraced run. It makes the three calls `SparkERPipeline.run` makes,
    * with the candidates materialised after the blocker so that the
    * blocker's own wait can be read off. Shuffle and result bytes come from
    * one job group around the whole run.
    */
  def untraced(profiles: Dataset[Profile], cfg: SparkERConfig): Untraced = {
    spark.catalog.clearCache()
    listener.reset()
    sc.setJobGroup(RunGroup, RunGroup, interruptOnCancel = false)
    val w0 = System.currentTimeMillis()
    val t0 = System.nanoTime()
    val b = SparkERPipeline.blocker(profiles, cfg)
    b.candidates.count()
    val t1 = System.nanoTime()
    val m = EntityMatcher
      .matches(b.candidates, profiles, cfg.matcherScheme, cfg.matcherThreshold)
      .cache()
    val c = EntityClusterer.cluster(m, profiles)
    m.count()
    val nEntities = entityCount(c)
    val t2 = System.nanoTime()
    sc.clearJobGroup()
    ListenerBusDrain(sc)
    val g = listener.group(RunGroup, Interval(w0, System.currentTimeMillis()))
    val candidatePairs = Check.pairs(b.candidates)
    val matchRows = m.select("p1", "p2", "score").collect()
    val matchPairs = matchRows.map(r => Check.pair(r.getLong(0), r.getLong(1)))
    Untraced(
      candidatesS = (t1 - t0) / 1e9,
      pipelineS = (t2 - t0) / 1e9,
      shuffleWriteMb = g.shuffleWriteBytes / 1e6,
      driverResultMb = g.resultBytes / 1e6,
      outputs = Outputs(candidatePairs, matchPairs, nEntities),
      candidatePairs = candidatePairs,
      matchPairs = matchPairs,
      weakMatches = matchRows.count(_.getDouble(2) < cfg.matcherThreshold),
      clusters = c)
  }

  /** A traced run: the blocker's stages called one by one, each in its own
    * span. Stages the pipeline leaves lazy (token blocking, purging,
    * filtering, the matcher) are cached and counted inside their span, so
    * their work is not billed to the next stage; each such cache is
    * dropped as soon as the next stage has been materialised from it.
    */
  def traced(profiles: Dataset[Profile], cfg: SparkERConfig): Traced = {
    spark.catalog.clearCache()
    listener.reset()
    val tr = new Tracer(spark, listener)
    val counts = Map.newBuilder[String, Double]
    val rowsOut = Map.newBuilder[String, Long]
    def materialise(df: DataFrame): (DataFrame, Long) = {
      val cached = df.cache()
      (cached, cached.count())
    }

    val kv = Profiles.toKV(profiles).cache()
    val clusters = tr.span("lsh") {
      cfg.schemaMode match {
        case SchemaMode.Loose(params) => Some(AttributePartitioner.clustersDF(spark, kv, params))
        case SchemaMode.Manual(map) => Some(AttributePartitioner.manualClustersDF(spark, kv, map))
        case SchemaMode.Agnostic => None
      }
    }
    rowsOut += "lsh" -> clusters.map(_.count()).getOrElse(0L)

    val (raw, nRaw) = tr.span("tokenblocking") {
      materialise(clusters match {
        case Some(c) => TokenBlocking.looseSchema(kv, c, cfg.minTokenLength)
        case None => TokenBlocking.schemaAgnostic(kv, cfg.minTokenLength)
      })
    }
    rowsOut += "tokenblocking" -> nRaw

    val (purged, nPurged) = tr.span("purging") {
      materialise(BlockPurging.purge(raw, profiles.count(), cfg.purgeFactor))
    }
    rowsOut += "purging" -> nPurged
    raw.unpersist()

    val (filtered, nFiltered) = tr.span("filtering") {
      materialise(BlockFiltering.filter(purged, cfg.filterRatio))
    }
    rowsOut += "filtering" -> nFiltered
    purged.unpersist()

    val (assignments, nBlocks) = tr.span("validblocks") {
      val a = TokenBlocking.validBlocks(filtered, cfg.mode).cache()
      (a, a.select("key").distinct().count())
    }
    filtered.unpersist()
    rowsOut += "validblocks" -> assignments.count()
    val stats = TokenBlocking.blockStats(assignments, cfg.mode)
      .agg(sum("comparisons"), max("size")).first()
    counts += "validblocks.blocks" -> nBlocks.toDouble
    counts += "validblocks.comparisons" -> stats.getLong(0).toDouble
    counts += "validblocks.block_size_max" -> stats.getLong(1).toDouble

    val (candidates, edges) = tr.span("metablocking") {
      cfg.pruning match {
        case PruningStrategy.NoPruning =>
          (materialise(TokenBlocking.comparisons(assignments, cfg.mode))._1, None)
        case p =>
          val e = MetaBlocking.edges(assignments, cfg.mode, cfg.weightScheme, cfg.useEntropy)
          val kept = p match {
            case PruningStrategy.Wep(f) => MetaBlocking.wep(e, f)
            case PruningStrategy.Wnp(kind, combine) => MetaBlocking.wnp(e, kind, combine)
            case PruningStrategy.Cep(k) => MetaBlocking.cep(e, k)
            case PruningStrategy.Cnp(k) => MetaBlocking.cnp(e, k)
            case PruningStrategy.NoPruning => e
          }
          (materialise(kept.select("p1", "p2"))._1, Some(e))
      }
    }
    val nCandidates = candidates.count()
    rowsOut += "metablocking" -> nCandidates
    // With no pruning no weighted edge list is built: nothing is pruned.
    val nEdges = edges.map(_.count()).getOrElse(0L)
    counts += "metablocking.edges" -> nEdges.toDouble
    counts += "metablocking.kept_ratio" ->
      (if (nEdges == 0) 1.0 else nCandidates.toDouble / nEdges)

    // The broadcast engine on the same assignments: a probe, not part of
    // the pipeline. It implements WNP and WEP only.
    val bcPruning = cfg.pruning match {
      case PruningStrategy.Wnp(kind, combine) => Some(BroadcastMetaBlocking.Pruning.Wnp(kind, combine))
      case PruningStrategy.Wep(f) => Some(BroadcastMetaBlocking.Pruning.Wep(f))
      case _ => None
    }
    val bc = tr.span("metablocking_bc") {
      bcPruning.map { p =>
        BroadcastMetaBlocking.candidates(assignments, cfg.mode, cfg.weightScheme, cfg.useEntropy, p)
          .select("p1", "p2")
      }
    }
    // Where there is no broadcast engine to compare, it trivially agrees.
    val bcPairs = bc.map(Check.pairs)
    rowsOut += "metablocking_bc" -> bcPairs.map(_.length.toLong).getOrElse(0L)
    val candidatePairs = Check.pairs(candidates)
    val bcAgrees = bcPairs.forall(_.sorted.sameElements(candidatePairs.sorted))

    val (matches, nMatches) = tr.span("matcher") {
      materialise(EntityMatcher.matches(
        candidates, profiles, cfg.matcherScheme, cfg.matcherThreshold))
    }
    rowsOut += "matcher" -> nMatches
    counts += "matcher.pairs_scored" -> nCandidates.toDouble
    counts += "matcher.matches" -> nMatches.toDouble

    val (entities, nEntities) = tr.span("clusterer") {
      val c = EntityClusterer.cluster(matches, profiles)
      (c, entityCount(c))
    }
    rowsOut += "clusterer" -> entities.count()
    counts += "clusterer.components" -> nEntities.toDouble

    Traced(
      layers = tr.report(),
      rowsOut = rowsOut.result(),
      counts = counts.result(),
      outputs = Outputs(candidatePairs, Check.pairs(matches), nEntities),
      broadcastAgrees = bcAgrees)
  }
}

object Runs {

  val RunGroup = "pipeline-run"

  /** Layers in pipeline order; `metablocking_bc` is a probe off the path. */
  val Layers: Seq[String] = Seq("lsh", "tokenblocking", "purging", "filtering",
    "validblocks", "metablocking", "metablocking_bc", "matcher", "clusterer")

  final case class Untraced(
      candidatesS: Double,
      pipelineS: Double,
      shuffleWriteMb: Double,
      driverResultMb: Double,
      outputs: Outputs,
      candidatePairs: Array[Check.Pair],
      matchPairs: Array[Check.Pair],
      weakMatches: Int,
      clusters: DataFrame)

  final case class Traced(
      layers: Seq[Tracer.LayerStats],
      rowsOut: Map[String, Long],
      counts: Map[String, Double],
      outputs: Outputs,
      broadcastAgrees: Boolean)

  /** Number of entities, counting singletons. Also materialises the
    * clusters.
    */
  def entityCount(clusters: DataFrame): Long = clusters.select("entityId").distinct().count()
}
