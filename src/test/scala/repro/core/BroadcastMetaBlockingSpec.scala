package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import org.scalacheck.Gen
import repro.core.BroadcastMetaBlocking.Pruning
import repro.core.MetaBlocking._
import repro.data.ERData
import repro.pipeline.SparkERPipeline
import repro.pipeline.SparkERPipeline.{PruningStrategy, SchemaMode, SparkERConfig}
import repro.{Fixtures, Props, SparkSpec}

/** Parity tests: the paper's broadcast-style meta-blocking must produce
  * exactly the same pruned graph as the DataFrame implementation.
  */
class BroadcastMetaBlockingSpec extends SparkSpec with Props {
  import spark.implicits._

  // The inputs are tiny: with the shared default of 64 shuffle partitions,
  // the oracle's queries would spend their time scheduling empty tasks.
  private val shufflePartitions = "spark.sql.shuffle.partitions"
  private var savedShufflePartitions: String = _

  override def beforeAll(): Unit = {
    super.beforeAll()
    savedShufflePartitions = spark.conf.get(shufflePartitions)
    spark.conf.set(shufflePartitions, "4")
  }

  override def afterAll(): Unit = {
    spark.conf.set(shufflePartitions, savedShufflePartitions)
    super.afterAll()
  }

  private def edgeSet(df: DataFrame): Set[(Long, Long, Double)] =
    df.select("p1", "p2", "weight").as[(Long, Long, Double)].collect()
      .map { case (a, b, w) => (a, b, math.rint(w * 1e9) / 1e9) }.toSet

  /** The DataFrame engine with the same pruning. */
  private def oracle(edges: DataFrame, pruning: Pruning): DataFrame = pruning match {
    case Pruning.Wep(f) => wep(edges, f)
    case Pruning.Wnp(kind, combine) => wnp(edges, kind, combine)
    case Pruning.Cep(k) => cep(edges, k)
    case Pruning.Cnp(k) => cnp(edges, k)
  }

  private lazy val fig1 =
    TokenBlocking.schemaAgnostic(Profiles.toKV(Fixtures.figure1(spark))).cache()

  private lazy val er = ERData.abtBuy(spark, nShared = 60, nOnlyA = 10, nOnlyB = 10)

  // The blocker caches and materialises its assignments.
  private lazy val erAssignments: DataFrame = SparkERPipeline.blocker(
    er.profiles,
    SparkERConfig(schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning)
  ).assignments

  private lazy val looseAssignments: DataFrame = SparkERPipeline.blocker(
    er.profiles, SparkERConfig(pruning = PruningStrategy.NoPruning)).assignments

  private lazy val erEdges = edges(erAssignments, ERMode.CleanClean).cache()

  /** Dirty-ER token blocks of `ERData.dirty`, every profile labelled `source`. */
  private def dirtyAssignments(source: Int): DataFrame = {
    val ps = ERData.dirty(spark, nShared = 40).profiles.collect().map(_.copy(source = source))
    TokenBlocking.validBlocks(
      TokenBlocking.schemaAgnostic(Profiles.toKV(Profiles.fromSeq(spark, ps.toSeq))),
      ERMode.Dirty).cache()
  }

  test("figure 1: broadcast CBS weights match the paper") {
    val got = BroadcastMetaBlocking.candidates(
      fig1, ERMode.CleanClean, pruning = Pruning.Wep(factor = 0.0))
    assert(
      got.select("p1", "p2", "weight").as[(Long, Long, Double)].collect()
        .map { case (a, b, w) => (a, b) -> w }.toMap == Fixtures.figure1CbsWeights)
  }

  test("figure 1: broadcast WNP matches dataframe WNP") {
    val df = wnp(edges(fig1, ERMode.CleanClean))
    val bc = BroadcastMetaBlocking.candidates(fig1, ERMode.CleanClean,
      pruning = Pruning.Wnp(ThresholdKind.AvgWeight, NodeCombine.Or))
    assert(edgeSet(bc) == edgeSet(df))
  }

  test("figure 1: broadcast CEP and CNP match the dataframe tie order") {
    val e = edges(fig1, ERMode.CleanClean)
    for (p <- Seq(Pruning.Cep(2), Pruning.Cep(100), Pruning.Cnp(1), Pruning.Cnp(2))) {
      val bc = BroadcastMetaBlocking.candidates(fig1, ERMode.CleanClean, pruning = p)
      assert(edgeSet(bc) == edgeSet(oracle(e, p)), p)
    }
  }

  test("pruning requires positive k") {
    intercept[IllegalArgumentException](
      BroadcastMetaBlocking.candidates(fig1, ERMode.CleanClean, pruning = Pruning.Cep(0)))
    intercept[IllegalArgumentException](
      BroadcastMetaBlocking.candidates(fig1, ERMode.CleanClean, pruning = Pruning.Cnp(0)))
  }

  test("parity on ER data: CBS + WNP avg/or") {
    val df = wnp(erEdges)
    val bc = BroadcastMetaBlocking.candidates(erAssignments, ERMode.CleanClean,
      pruning = Pruning.Wnp(ThresholdKind.AvgWeight, NodeCombine.Or))
    assert(edgeSet(bc) == edgeSet(df))
  }

  test("parity on ER data: CBS + WNP blast rule") {
    val df = wnp(erEdges, ThresholdKind.MaxFraction(0.5), NodeCombine.Avg)
    val bc = BroadcastMetaBlocking.candidates(erAssignments, ERMode.CleanClean,
      pruning = Pruning.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg))
    assert(edgeSet(bc) == edgeSet(df))
  }

  test("parity on ER data: JS + WNP and") {
    val df = wnp(edges(erAssignments, ERMode.CleanClean, WeightScheme.JS),
      combine = NodeCombine.And)
    val bc = BroadcastMetaBlocking.candidates(erAssignments, ERMode.CleanClean,
      WeightScheme.JS, pruning = Pruning.Wnp(ThresholdKind.AvgWeight, NodeCombine.And))
    assert(edgeSet(bc) == edgeSet(df))
  }

  test("parity on ER data: entropy-weighted CBS + WEP") {
    val df = wep(edges(looseAssignments, ERMode.CleanClean, WeightScheme.CBS, useEntropy = true))
    val bc = BroadcastMetaBlocking.candidates(looseAssignments, ERMode.CleanClean,
      WeightScheme.CBS, useEntropy = true, Pruning.Wep())
    assert(edgeSet(bc) == edgeSet(df))
  }

  test("parity on ER data: CEP and CNP") {
    for (p <- Seq(Pruning.Cep(150), Pruning.Cnp(3))) {
      val bc = BroadcastMetaBlocking.candidates(erAssignments, ERMode.CleanClean, pruning = p)
      assert(edgeSet(bc) == edgeSet(oracle(erEdges, p)), p)
    }
  }

  test("parity in dirty mode") {
    val a = dirtyAssignments(source = 1)
    val df = wnp(edges(a, ERMode.Dirty))
    val bc = BroadcastMetaBlocking.candidates(a, ERMode.Dirty,
      pruning = Pruning.Wnp(ThresholdKind.AvgWeight, NodeCombine.Or))
    assert(edgeSet(bc) == edgeSet(df))
  }

  test("dirty mode: profiles whose source is not 1 get their edges") {
    val a = dirtyAssignments(source = 0)
    val df = edgeSet(wnp(edges(a, ERMode.Dirty)))
    val bc = edgeSet(BroadcastMetaBlocking.candidates(a, ERMode.Dirty,
      pruning = Pruning.Wnp(ThresholdKind.AvgWeight, NodeCombine.Or)))
    assert(df.size == 1116, df.size)
    assert(bc == df)
  }

  test("entropy sums round the exact sum, whatever the key order") {
    // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit.
    val ents = Seq(0.1, 0.2, 0.3)
    val exact = ents.map(new java.math.BigDecimal(_)).reduce(_ add _).doubleValue
    for (perm <- ents.permutations) {
      val a = perm.zipWithIndex.flatMap { case (e, i) =>
        Seq((s"k$i", 0, e, 1L, 1), (s"k$i", 0, e, 2L, 2))
      }.toDF("key", "cluster", "entropy", "pid", "source")
      val w = BroadcastMetaBlocking.candidates(a, ERMode.CleanClean, useEntropy = true,
        pruning = Pruning.Wep(0.0)).select("weight").as[Double].collect()
      assert(w.toSeq == Seq(exact), perm)
    }
  }

  test("broadcast WEP matches dataframe WEP on figure 1") {
    val df = wep(edges(fig1, ERMode.CleanClean))
    val bc = BroadcastMetaBlocking.candidates(fig1, ERMode.CleanClean,
      pruning = Pruning.Wep())
    assert(edgeSet(bc) == edgeSet(df))
  }

  test("broadcast output contains no duplicate edges") {
    val bc = BroadcastMetaBlocking.candidates(erAssignments, ERMode.CleanClean,
      pruning = Pruning.Wnp(ThresholdKind.AvgWeight, NodeCombine.Or))
    assert(bc.count() == bc.select("p1", "p2").distinct().count())
  }

  test("degenerate inputs: every pruning gives an empty result on both engines") {
    val prunings = Seq(Pruning.Wep(), Pruning.Wnp(ThresholdKind.AvgWeight, NodeCombine.Or),
      Pruning.Cep(10), Pruning.Cnp(2))
    val strategies = Seq(PruningStrategy.Wep(), PruningStrategy.Wnp(),
      PruningStrategy.Cep(10), PruningStrategy.Cnp(2))
    val purgeAll = SparkERConfig(schemaMode = SchemaMode.Agnostic, purgeFactor = 1e-6)
    val purged = strategies.map(s => SparkERPipeline.blocker(er.profiles, purgeAll.copy(pruning = s)))
    for (b <- purged) assert(b.candidates.count() == 0, b)
    for (a <- Seq(fig1.where(lit(false)), purged.head.assignments); mode <- Seq(ERMode.CleanClean, ERMode.Dirty);
         p <- prunings) {
      assert(oracle(edges(a, mode), p).count() == 0, (mode, p))
      assert(BroadcastMetaBlocking.candidates(a, mode, pruning = p).count() == 0, (mode, p))
    }
  }

  /** A small random block collection plus one configuration of both engines. */
  private final case class Case(
      blocks: Seq[(Double, Seq[Int])],
      sources: Seq[Int],
      mode: ERMode,
      scheme: WeightScheme,
      useEntropy: Boolean,
      pruning: Pruning,
      partitions: Int)

  private val genCase: Gen[Case] = for {
    n <- Gen.choose(2, 10)
    sources <- Gen.listOfN(n, Gen.oneOf(0, 1, 2))
    nBlocks <- Gen.choose(1, 8)
    // Dyadic entropies add up exactly in any order.
    blocks <- Gen.listOfN(nBlocks, Gen.zip(
      Gen.oneOf(0.25, 0.5, 1.0, 2.0),
      Gen.choose(1, n).flatMap(m => Gen.pick(m, 0 until n)).map(_.toSeq)))
    mode <- Gen.oneOf(ERMode.CleanClean, ERMode.Dirty)
    scheme <- Gen.oneOf(WeightScheme.CBS, WeightScheme.JS)
    useEntropy <- Gen.oneOf(true, false)
    pruning <- Gen.oneOf(
      Gen.oneOf(0.5, 1.0, 1.5).map(Pruning.Wep(_)),
      Gen.zip(
        Gen.oneOf(ThresholdKind.AvgWeight, ThresholdKind.MaxFraction(0.5)),
        Gen.oneOf(NodeCombine.Or, NodeCombine.And, NodeCombine.Avg)
      ).map { case (kind, combine) => Pruning.Wnp(kind, combine) },
      Gen.choose(1L, 8L).map(Pruning.Cep(_)),
      Gen.choose(1, 3).map(Pruning.Cnp(_)))
    partitions <- Gen.oneOf(1, 4, 16)
  } yield Case(blocks, sources, mode, scheme, useEntropy, pruning, partitions)

  test("property: broadcast engine equals the dataframe oracle on random blocks") {
    forAllG(genCase, n = 60) { c =>
      // Sparse, descending pids: node numbering must not assume 0..n-1.
      def pid(i: Int): Long = 1000L - 13L * i
      val a = c.blocks.zipWithIndex.flatMap { case ((entropy, members), b) =>
        members.map(i => (s"k$b", 0, entropy, pid(i), c.sources(i)))
      }.toDF("key", "cluster", "entropy", "pid", "source").repartition(c.partitions)
      val df = oracle(edges(a, c.mode, c.scheme, c.useEntropy), c.pruning)
      val bc = BroadcastMetaBlocking.candidates(a, c.mode, c.scheme, c.useEntropy, c.pruning)
      assert(edgeSet(bc) == edgeSet(df))
    }
  }
}
