package repro.pipeline

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.core._
import repro.core.MetaBlocking.{NodeCombine, ThresholdKind, WeightScheme}
import repro.clustering.EntityClusterer
import repro.lsh.AttributePartitioner
import repro.matching.{EntityMatcher, Similarity}

/** End-to-end SparkER pipeline (Fig 3): Blocker → Entity Matcher → Entity
  * Clusterer, each module a black box over DataFrames, with every knob of
  * the demo's supervised mode surfaced in [[SparkERConfig]].
  */
object SparkERPipeline {

  /** Graph pruning strategy for the meta-blocking stage. */
  sealed trait PruningStrategy
  object PruningStrategy {
    /** No meta-blocking: all block-derived comparisons survive. */
    case object NoPruning extends PruningStrategy
    final case class Wep(factor: Double = 1.0) extends PruningStrategy
    final case class Wnp(
        kind: ThresholdKind = ThresholdKind.AvgWeight,
        combine: NodeCombine = NodeCombine.Or) extends PruningStrategy
    final case class Cep(k: Long) extends PruningStrategy
    final case class Cnp(k: Int) extends PruningStrategy
  }

  /** Attribute-partitioning choice for the blocking keys. */
  sealed trait SchemaMode
  object SchemaMode {
    /** Plain schema-agnostic token blocking (Fig 1b). */
    case object Agnostic extends SchemaMode
    /** LSH-discovered loose schema (Fig 2) with the given params. */
    final case class Loose(params: AttributePartitioner.Params = AttributePartitioner.Params())
        extends SchemaMode
    /** User-edited partitions (the demo's Fig 6c manual intervention). */
    final case class Manual(clusters: Map[String, Int]) extends SchemaMode
  }

  final case class SparkERConfig(
      mode: ERMode = ERMode.CleanClean,
      minTokenLength: Int = Tokenizer.DefaultMinLength,
      purgeFactor: Double = BlockPurging.DefaultMaxFraction,
      filterRatio: Double = BlockFiltering.DefaultRatio,
      schemaMode: SchemaMode = SchemaMode.Loose(),
      weightScheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = true,
      pruning: PruningStrategy = PruningStrategy.Wnp(),
      matcherScheme: Similarity.Scheme = Similarity.Scheme.JaccardTokens,
      matcherThreshold: Double = 0.5)

  /** Blocker output plus the stage counts the demo GUI reports. */
  final case class BlockerResult(
      clusters: Option[DataFrame],
      assignments: DataFrame,
      candidates: DataFrame,
      nBlocks: Long)

  final case class PipelineResult(
      blocker: BlockerResult,
      matches: DataFrame,
      clusters: DataFrame)

  /** Blocker (Fig 4): loose schema generation (optional) → token blocking
    * → purging → filtering → meta-blocking → candidate pairs. Meta-blocking
    * runs on the paper's broadcast engine, [[BroadcastMetaBlocking]].
    */
  def blocker(profiles: Dataset[Profile], cfg: SparkERConfig): BlockerResult = {
    val spark = profiles.sparkSession
    val kv = Profiles.toKV(profiles).cache()

    val (clustersDf, raw) = cfg.schemaMode match {
      case SchemaMode.Agnostic =>
        (None, TokenBlocking.schemaAgnostic(kv, cfg.minTokenLength))
      case SchemaMode.Loose(params) =>
        val c = AttributePartitioner.clustersDF(spark, kv, params)
        (Some(c), TokenBlocking.looseSchema(kv, c, cfg.minTokenLength))
      case SchemaMode.Manual(map) =>
        val c = AttributePartitioner.manualClustersDF(spark, kv, map)
        (Some(c), TokenBlocking.looseSchema(kv, c, cfg.minTokenLength))
    }

    val totalProfiles = profiles.count()
    val purged = BlockPurging.purge(raw, totalProfiles, cfg.purgeFactor)
    val filtered = BlockFiltering.filter(purged, cfg.filterRatio)
    val assignments = TokenBlocking.validBlocks(filtered, cfg.mode).cache()
    val nBlocks = assignments.select("key").distinct().count()
    // The count materialised the cached assignments; nothing reads kv again.
    kv.unpersist()

    def metaBlocking(p: BroadcastMetaBlocking.Pruning): DataFrame =
      BroadcastMetaBlocking
        .candidates(assignments, cfg.mode, cfg.weightScheme, cfg.useEntropy, p)
        .select("p1", "p2")
    val candidates = cfg.pruning match {
      case PruningStrategy.NoPruning => TokenBlocking.comparisons(assignments, cfg.mode)
      case PruningStrategy.Wep(f) => metaBlocking(BroadcastMetaBlocking.Pruning.Wep(f))
      case PruningStrategy.Wnp(kind, combine) =>
        metaBlocking(BroadcastMetaBlocking.Pruning.Wnp(kind, combine))
      case PruningStrategy.Cep(k) => metaBlocking(BroadcastMetaBlocking.Pruning.Cep(k))
      case PruningStrategy.Cnp(k) => metaBlocking(BroadcastMetaBlocking.Pruning.Cnp(k))
    }
    BlockerResult(clustersDf, assignments, candidates.cache(), nBlocks)
  }

  /** Full stack: blocker → matcher → clusterer. */
  def run(profiles: Dataset[Profile], cfg: SparkERConfig): PipelineResult = {
    val b = blocker(profiles, cfg)
    val m = EntityMatcher
      .matches(b.candidates, profiles, cfg.matcherScheme, cfg.matcherThreshold)
      .cache()
    val c = EntityClusterer.cluster(m, profiles)
    PipelineResult(b, m, c)
  }
}
