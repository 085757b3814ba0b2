package repro.perfbench

import org.apache.spark.sql.DataFrame

/** Output checks and answer quality, computed on the driver from the
  * collected pair sets, outside the timed region. The sets are small at the
  * benchmark's scales, and one collect costs less than the Spark queries
  * that would compute the same figures.
  */
object Check {

  type Pair = (Long, Long)

  /** Counts and fingerprints that identify a run's answer. */
  final case class Outputs(
      candidates: Long,
      matches: Long,
      entities: Long,
      candidatesFp: Long,
      matchesFp: Long) {
    def tsv: String = Seq(candidates, matches, entities, candidatesFp, matchesFp).mkString("\t")
  }

  object Outputs {
    def apply(candidates: Array[Pair], matches: Array[Pair], entities: Long): Outputs =
      Outputs(candidates.length.toLong, matches.length.toLong, entities,
        fingerprint(candidates), fingerprint(matches))

    def fromTsv(fields: Seq[String]): Outputs = {
      val Seq(c, m, e, cf, mf) = fields.map(_.toLong)
      Outputs(c, m, e, cf, mf)
    }
  }

  def pair(a: Long, b: Long): Pair = if (a <= b) (a, b) else (b, a)

  /** The (p1, p2) pairs of a DataFrame, each ordered low id first. */
  def pairs(df: DataFrame): Array[Pair] =
    df.select("p1", "p2").collect().map(r => pair(r.getLong(0), r.getLong(1)))

  /** SplitMix64 finaliser: a fixed, well-mixed 64-bit hash. */
  private def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** XOR of each pair's hash: independent of row order and partitioning.
    * A duplicated pair cancels out, but it also changes the count.
    */
  def fingerprint(ps: Array[Pair]): Long =
    ps.foldLeft(0L) { case (acc, (a, b)) => acc ^ mix(mix(a) ^ b) }

  final case class Quality(candidateRecall: Double, candidatePrecision: Double, clusterF1: Double)

  /** Pair-level quality, with the definitions of `repro.eval.Metrics`:
    * candidate recall and precision against the ground truth, and the F1
    * of the intra-cluster pairs.
    */
  def quality(candidates: Array[Pair], entityOf: Map[Long, Long], truth: Array[Pair]): Quality = {
    val gt = truth.toSet
    val cand = candidates.toSet
    val tp = cand.count(gt.contains).toDouble
    val clusterPairs = entityOf.values.groupBy(identity).values
      .map(m => m.size.toLong * (m.size - 1) / 2).sum.toDouble
    val clusterTp = gt.count { case (a, b) => entityOf.get(a).exists(entityOf.get(b).contains) }
    val (p, r) = (
      if (clusterPairs == 0) 0.0 else clusterTp / clusterPairs,
      if (gt.isEmpty) 1.0 else clusterTp.toDouble / gt.size)
    Quality(
      candidateRecall = if (gt.isEmpty) 1.0 else tp / gt.size,
      candidatePrecision = if (cand.isEmpty) 0.0 else tp / cand.size,
      clusterF1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r))
  }
}
