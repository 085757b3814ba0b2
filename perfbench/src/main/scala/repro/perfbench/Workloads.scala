package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.MetaBlocking.{NodeCombine, ThresholdKind, WeightScheme}
import repro.data.ERData
import repro.lsh.AttributePartitioner
import repro.matching.Similarity
import repro.pipeline.SparkERPipeline.{PruningStrategy, SchemaMode, SparkERConfig}

/** The benchmark's workloads. Each is a pipeline configuration plus an
  * input generated by [[repro.data.ERData]] from the benchmark's seed.
  */
object Workloads {

  final case class Workload(
      name: String,
      cfg: SparkERConfig,
      generate: (SparkSession, Long) => ERData.ERDataset)

  /** The paper's Blast setup (§2.1, Fig 2): loose schema from LSH at
    * t = 0.3, entropy-weighted CBS, WNP with θ = ½·max and the average of
    * the two node thresholds; Jaccard matcher at 0.2.
    */
  val blast: SparkERConfig = SparkERConfig(
    schemaMode = SchemaMode.Loose(AttributePartitioner.Params(threshold = 0.3)),
    weightScheme = WeightScheme.CBS,
    useEntropy = true,
    pruning = PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg),
    matcherScheme = Similarity.Scheme.JaccardTokens,
    matcherThreshold = 0.2)

  val all: Seq[Workload] = Seq(
    // Headline configuration: meta-blocking is the largest layer.
    Workload("blast-cc-1k", blast,
      (spark, seed) => ERData.abtBuy(spark, 1000, 100, 100, seed)),
    // Skips LSH and meta-blocking; every block comparison reaches the
    // matcher, which becomes the largest layer.
    Workload("tokenblock-cc-1k",
      blast.copy(schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning),
      (spark, seed) => ERData.abtBuy(spark, 1000, 100, 100, seed)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
