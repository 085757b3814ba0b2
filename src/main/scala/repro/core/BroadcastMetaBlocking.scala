package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.MetaBlocking.{NodeCombine, ThresholdKind, WeightScheme}

import scala.reflect.ClassTag

/** The paper's parallel meta-blocking (§2.1): "inspired by the broadcast
  * join: it partitions the nodes of the blocking graph and sends in
  * broadcast (i.e., to each partition) all the information needed to
  * materialize the neighborhood of each node one at a time. Once the
  * neighborhood of a node is materialized, the pruning function is
  * applied."
  *
  * This is the production meta-blocking engine:
  * [[repro.pipeline.SparkERPipeline.blocker]] runs every weighted pruning
  * (WEP, WNP, CEP, CNP) here. [[MetaBlocking]] is the DataFrame oracle that
  * the parity tests, T4 and the benchmark's traced run compare it with.
  *
  * Concretely: one row per block (key, entropy, members per side) reaches
  * the driver and becomes the broadcast index. Profiles are numbered in pid
  * order and blocks in key order, and each profile keeps its block list in
  * key order, so an edge's entropy sum is added up in the same order from
  * both endpoints and on any partitioning. Node ids are spread over an RDD;
  * each partition materializes one neighborhood at a time in arrays sized
  * to the node count. Floating-point sums (entropy sums, node and global
  * means) are compensated: they round the exact sum once, whatever the
  * order of their terms, so a weight that ties a threshold in exact
  * arithmetic is decided the same way on any partitioning. A first pass
  * sends the per-node thresholds (WNP, CNP) or the global mean (WEP) to the
  * driver; the second pass is returned lazily as the edge DataFrame, so
  * the edge list is neither shuffled nor collected. CEP sends its k best
  * edges to the driver.
  *
  * Semantics are identical to [[MetaBlocking]] (tested for parity), except
  * that the oracle's sums are not compensated: where a weight ties a
  * threshold in exact arithmetic, the oracle's rounding can decide it the
  * other way.
  */
object BroadcastMetaBlocking extends Serializable {

  /** Pruning strategy for the broadcast implementation. */
  sealed trait Pruning
  object Pruning {
    final case class Wnp(kind: ThresholdKind, combine: NodeCombine) extends Pruning
    final case class Wep(factor: Double = 1.0) extends Pruning
    /** Keep the globally top-k edges. */
    final case class Cep(k: Long) extends Pruning
    /** Keep an edge if it is among either endpoint's top-k edges. */
    final case class Cnp(k: Int) extends Pruning
  }

  /** An edge between two node ids: (p1, p2, weight). */
  private type Edge = (Int, Int, Double)

  /** [[MetaBlocking]]'s tie order for CEP and CNP: weight desc, then p1
    * asc, then p2 asc. Node ids follow pid order, so comparing them
    * compares the pids.
    */
  private object EdgeRank extends Ordering[Edge] {
    def compare(a: Edge, b: Edge): Int = {
      val c = java.lang.Double.compare(b._3, a._3)
      if (c != 0) c
      else if (a._1 != b._1) Integer.compare(a._1, b._1)
      else Integer.compare(a._2, b._2)
    }
  }

  /** Ranks after every edge: the CNP key of a node with at most k edges. */
  private val RankAll: Edge = (Int.MaxValue, Int.MaxValue, Double.NegativeInfinity)

  /** The rounding error of `t = a + b` (Knuth's two-sum): a + b = t + error
    * exactly.
    */
  private def twoSumError(a: Double, b: Double, t: Double): Double = {
    val bp = t - a
    (a - (t - bp)) + (b - bp)
  }

  /** A compensated running sum: the plain sum plus its accumulated
    * rounding errors, rounded once by `value`.
    */
  private final class CompensatedSum extends Serializable {
    private var hi = 0.0
    private var lo = 0.0

    def add(x: Double): CompensatedSum = {
      val t = hi + x
      lo += twoSumError(hi, x, t)
      hi = t
      this
    }

    def merge(o: CompensatedSum): CompensatedSum = add(o.hi).add(o.lo)

    def value: Double = hi + lo
  }

  /** Per-task accumulators for one neighborhood, left zeroed between nodes.
    * A neighbor's entropy sum is `entropy + entropyError` (compensated).
    */
  private final class Buffers(n: Int) {
    val cbs = new Array[Int](n)
    val entropy = new Array[Double](n)
    val entropyError = new Array[Double](n)
    val touched = new Array[Int](n)
  }

  /** The broadcast index. Nodes are profiles numbered in pid order; blocks
    * are numbered in key order, and `nodeBlocks` lists them ascending.
    */
  private final class Index(
      val pids: Array[Long],
      sideA: Array[Boolean],
      nodeBlocks: Array[Array[Int]],
      blockA: Array[Array[Int]],
      blockB: Array[Array[Int]],
      blockEntropy: Array[Double],
      mode: ERMode,
      scheme: WeightScheme,
      useEntropy: Boolean) extends Serializable {

    def size: Int = pids.length

    /** Upper bound on the number of edges: Σ block comparisons. */
    def comparisons: Long = mode match {
      case ERMode.CleanClean =>
        blockA.indices.map(b => blockA(b).length.toLong * blockB(b).length).sum
      case ERMode.Dirty =>
        blockA.indices.map { b =>
          val m = blockA(b).length.toLong + blockB(b).length
          m * (m - 1) / 2
        }.sum
    }

    /** Node u's neighbors and the weights of the edges to them. */
    def neighborhood(u: Int, s: Buffers): (Array[Int], Array[Double]) = {
      var m = 0
      def visit(members: Array[Int], ent: Double): Unit = {
        var j = 0
        while (j < members.length) {
          val v = members(j)
          if (v != u) {
            if (s.cbs(v) == 0) { s.touched(m) = v; m += 1 }
            s.cbs(v) += 1
            val t = s.entropy(v) + ent
            s.entropyError(v) += twoSumError(s.entropy(v), ent, t)
            s.entropy(v) = t
          }
          j += 1
        }
      }
      val blocks = nodeBlocks(u)
      var i = 0
      while (i < blocks.length) {
        val b = blocks(i)
        mode match {
          case ERMode.CleanClean =>
            visit(if (sideA(u)) blockB(b) else blockA(b), blockEntropy(b))
          case ERMode.Dirty =>
            visit(blockA(b), blockEntropy(b))
            visit(blockB(b), blockEntropy(b))
        }
        i += 1
      }
      val vs = java.util.Arrays.copyOf(s.touched, m)
      val ws = new Array[Double](m)
      var k = 0
      while (k < m) {
        val v = vs(k)
        val entSum = s.entropy(v) + s.entropyError(v)
        ws(k) = weight(s.cbs(v), entSum, blocks.length, nodeBlocks(v).length)
        s.cbs(v) = 0
        s.entropy(v) = 0.0
        s.entropyError(v) = 0.0
        k += 1
      }
      (vs, ws)
    }

    private def weight(cbs: Int, entSum: Double, nb1: Int, nb2: Int): Double = scheme match {
      case WeightScheme.CBS => if (useEntropy) entSum else cbs.toDouble
      case WeightScheme.JS =>
        val js = cbs.toDouble / (nb1 + nb2 - cbs)
        if (useEntropy) js * entSum / cbs else js
    }

    /** The edge u–v in output orientation: p1 from source 1 in clean-clean
      * ER, p1 < p2 in dirty ER.
      */
    def orient(u: Int, v: Int, w: Double): Edge = mode match {
      case ERMode.CleanClean => if (sideA(u)) (u, v, w) else (v, u, w)
      case ERMode.Dirty => if (u < v) (u, v, w) else (v, u, w)
    }

    /** The edges node u emits; over all nodes, every edge exactly once. */
    def emitted(u: Int, s: Buffers): Iterator[Edge] = mode match {
      case ERMode.CleanClean if !sideA(u) => Iterator.empty
      case _ =>
        val (vs, ws) = neighborhood(u, s)
        vs.indices.iterator.collect { case k if mode == ERMode.CleanClean || u < vs(k) =>
          (u, vs(k), ws(k))
        }
    }
  }

  /** Collect the block index, one row per block, and number its nodes. */
  private def buildIndex(
      assignments: DataFrame,
      mode: ERMode,
      scheme: WeightScheme,
      useEntropy: Boolean): Index = {
    val isA = col("source") === 1
    val blocks = assignments
      .groupBy("key")
      .agg(
        first("entropy"),
        collect_set(when(isA, col("pid"))),
        collect_set(when(!isA, col("pid"))))
      .collect()
      .sortBy(_.getString(0))
    val pidsA = blocks.map(_.getSeq[Long](2).toArray)
    val pidsB = blocks.map(_.getSeq[Long](3).toArray)
    val pids = (pidsA.iterator ++ pidsB.iterator).flatten.toArray.sorted.distinct
    def nodeIds(ps: Array[Long]): Array[Int] =
      ps.map(java.util.Arrays.binarySearch(pids, _)).sorted
    val blockA = pidsA.map(nodeIds)
    val blockB = pidsB.map(nodeIds)

    val sideA = new Array[Boolean](pids.length)
    blockA.foreach(_.foreach(sideA(_) = true))
    val nodeBlocks = Array.fill(pids.length)(Array.newBuilder[Int])
    for (b <- blocks.indices; v <- blockA(b).iterator ++ blockB(b).iterator)
      nodeBlocks(v) += b
    new Index(pids, sideA, nodeBlocks.map(_.result()), blockA, blockB,
      blocks.map(_.getDouble(1)), mode, scheme, useEntropy)
  }

  /** Run weighting + pruning and return candidate edges (p1, p2, weight).
    * Clean-clean: p1 from source 1; dirty: p1 < p2. The result is lazy:
    * only the block index, the per-node thresholds (WNP, CNP), the global
    * mean (WEP) or the k best edges (CEP) are computed here.
    */
  def candidates(
      assignments: DataFrame,
      mode: ERMode,
      scheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = false,
      pruning: Pruning = Pruning.Wnp(ThresholdKind.AvgWeight, NodeCombine.Or)): DataFrame = {
    val spark = assignments.sparkSession
    import spark.implicits._
    val sc = spark.sparkContext

    // The "information sent in broadcast". The lazy output reads it, so it
    // stays alive.
    val index = buildIndex(assignments, mode, scheme, useEntropy)
    val bIndex = sc.broadcast(index)
    val nodes = sc.parallelize(0 until index.size, sc.defaultParallelism)

    /** Runs `f` over each partition's node ids with one set of buffers. */
    def perPartition[T: ClassTag](f: (Index, Buffers, Iterator[Int]) => Iterator[T]): RDD[T] =
      nodes.mapPartitions { it =>
        val g = bIndex.value
        f(g, new Buffers(g.size), it)
      }

    val edges = perPartition((g, s, us) => us.flatMap(g.emitted(_, s)))

    val kept: RDD[Edge] = pruning match {
      case Pruning.Wep(factor) =>
        // Pass 1: global mean over each edge once.
        val parts = edges.mapPartitions { it =>
          val sum = new CompensatedSum
          var n = 0L
          it.foreach { e => sum.add(e._3); n += 1 }
          Iterator.single((sum, n))
        }.collect()
        val cnt = parts.map(_._2).sum
        val sum = parts.map(_._1).foldLeft(new CompensatedSum)(_ merge _).value
        val thr = factor * (if (cnt == 0) 0.0 else sum / cnt)
        edges.filter(_._3 >= thr)

      case Pruning.Wnp(kind, combine) =>
        // Pass 1: per-node threshold from its materialized neighborhood.
        val theta = new Array[Double](index.size)
        perPartition { (g, s, it) =>
          val us = it.toArray
          val ts = us.map { u =>
            val ws = g.neighborhood(u, s)._2
            if (ws.isEmpty) Double.PositiveInfinity
            else kind match {
              case ThresholdKind.AvgWeight =>
                ws.foldLeft(new CompensatedSum)(_ add _).value / ws.length
              case ThresholdKind.MaxFraction(c) => ws.max * c
            }
          }
          Iterator.single((us, ts))
        }.collect().foreach { case (us, ts) => us.indices.foreach(i => theta(us(i)) = ts(i)) }
        val bTheta = sc.broadcast(theta)
        // Pass 2: re-materialize neighborhoods, apply the pruning rule.
        edges.mapPartitions { it =>
          val th = bTheta.value
          it.filter { case (p1, p2, w) =>
            combine match {
              case NodeCombine.Or => w >= th(p1) || w >= th(p2)
              case NodeCombine.And => w >= th(p1) && w >= th(p2)
              case NodeCombine.Avg => w >= (th(p1) + th(p2)) / 2
            }
          }
        }

      case Pruning.Cep(k) =>
        require(k > 0, s"k must be positive, got $k")
        // takeOrdered sizes its queues by k, so k is capped by the edge count bound.
        val top = math.min(k, math.min(index.comparisons, Int.MaxValue.toLong)).toInt
        sc.parallelize(edges.takeOrdered(top)(EdgeRank).toSeq, 1)

      case Pruning.Cnp(k) =>
        require(k > 0, s"k must be positive, got $k")
        // Pass 1: each node's k-th best edge, as rank-key arrays.
        val (kp1, kp2, kw) =
          (new Array[Int](index.size), new Array[Int](index.size), new Array[Double](index.size))
        perPartition { (g, s, it) =>
          val us = it.toArray
          val keys = us.map { u =>
            val (vs, ws) = g.neighborhood(u, s)
            if (vs.length <= k) RankAll
            else vs.indices.map(i => g.orient(u, vs(i), ws(i))).sorted(EdgeRank).apply(k - 1)
          }
          Iterator.single((us, keys.map(_._1), keys.map(_._2), keys.map(_._3)))
        }.collect().foreach { case (us, p1s, p2s, ws) =>
          us.indices.foreach { i =>
            kp1(us(i)) = p1s(i); kp2(us(i)) = p2s(i); kw(us(i)) = ws(i)
          }
        }
        val bKth = sc.broadcast((kp1, kp2, kw))
        // Pass 2: keep an edge that ranks within either endpoint's k.
        edges.mapPartitions { it =>
          val (p1s, p2s, ws) = bKth.value
          def within(e: Edge, u: Int): Boolean = EdgeRank.lteq(e, (p1s(u), p2s(u), ws(u)))
          it.filter(e => within(e, e._1) || within(e, e._2))
        }
    }

    kept
      .mapPartitions { it =>
        val pids = bIndex.value.pids
        it.map { case (p1, p2, w) => (pids(p1), pids(p2), w) }
      }
      .toDF("p1", "p2", "weight")
  }
}
