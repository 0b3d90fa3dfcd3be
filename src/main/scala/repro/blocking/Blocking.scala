package repro.blocking

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Record, UnionFind}
import repro.embed.Embed

/** Filtering / blocking strategies of §5.1, as Spark dataflow.
  *
  * Each strategy yields the record pairs whose similarity reaches a
  * threshold. LSH scores pairs inside their shared bucket and keeps only
  * those at or above it; Filter and Canopy self-join token rows, join the
  * pairs back to their texts for scoring, and prune afterwards. Blocks
  * are the connected components of these edges (transitive block
  * merging), computed with a driver-side union-find over the collected
  * edge list, which is tiny relative to the pair space.
  */
object Blocking {

  sealed trait Strategy { def name: String }
  case object LSH       extends Strategy { val name = "LSH" }
  case object Filter    extends Strategy { val name = "Filter" }
  case object Canopy    extends Strategy { val name = "Canopy" }
  case object NoBlocking extends Strategy { val name = "NoBlocking" }

  /** `bands * bits` deterministic Gaussian hyperplanes over the embeddings. */
  private[blocking] def hyperplanes(bands: Int, bits: Int, seed: Long): Array[Array[Float]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(bands * bits)(Array.fill(Embed.Dim)(rnd.nextGaussian().toFloat))
  }

  /** The bucket signature of `vec` in each band of `bits` consecutive
    * planes: bit k is set when `vec` is on the non-negative side of the
    * band's k-th plane.
    */
  private[blocking] def signatures(planes: Array[Array[Float]], bits: Int, vec: Array[Float]): Array[Long] =
    Array.tabulate(planes.length / bits) { b =>
      var sig = 0L; var k = 0
      while (k < bits) {
        var s = 0.0; var d = 0
        val p = planes(b * bits + k)
        while (d < vec.length) { s += p(d) * vec(d); d += 1 }
        if (s >= 0) sig |= (1L << k)
        k += 1
      }
      sig
    }

  /** Random-hyperplane LSH banding over the record embeddings: every pair
    * (id_a < id_b) that shares a bucket in some band and whose cosine
    * (`Record.cos`) is at least `minSim`, once, as (id_a, id_b, sim).
    * Pairs are scored inside their bucket, in the first band the two
    * records share, so neither the pairs below `minSim` nor a band's
    * repeat of a pair leave the bucket task.
    */
  def lshCandidates(spark: SparkSession, ds: Dataset[Record], bands: Int = 8, bits: Int = 8,
                    seed: Long = 7L, minSim: Double = Double.NegativeInfinity): DataFrame = {
    import spark.implicits._
    val planes = hyperplanes(bands, bits, seed)
    ds.flatMap { r =>
        val sigs = signatures(planes, bits, r.vec)
        sigs.indices.map(b => (b, sigs, r.id, r.vec))
      }
      .groupByKey { case (b, sigs, _, _) => (b, sigs(b)) }
      .flatMapGroups { (key, rows) =>
        val band   = key._1
        val bucket = rows.toArray.sortBy(_._3)
        for {
          i               <- bucket.indices.iterator
          (_, sa, a, va)   = bucket(i)
          (_, sb, b, vb)  <- bucket.iterator.drop(i + 1)
          if (0 until band).forall(e => sa(e) != sb(e))
          sim              = Embed.cosine(va, vb)
          if sim >= minSim
        } yield (a, b, sim)
      }
      .toDF("id_a", "id_b", "sim")
  }

  /** Candidate pairs via prefix-filtered token similarity join (the
    * positional-filtering flavour of §5.1), scored with token Jaccard.
    */
  def filterCandidates(spark: SparkSession, ds: Dataset[Record], bt: Double): DataFrame = {
    import spark.implicits._
    val toks = ds.flatMap(r => Embed.tokens(r.text).distinct.map(t => (r.id, t)))
      .toDF("id", "tok")
    // Global token frequency — rare tokens first gives small prefixes.
    val freq = toks.groupBy("tok").agg(count(lit(1)).as("df"))
    val ranked = toks.join(freq, "tok")
      .withColumn("rank", row_number().over(
        org.apache.spark.sql.expressions.Window.partitionBy("id").orderBy(col("df"), col("tok"))))
    val sizes = toks.groupBy("id").agg(count(lit(1)).as("ntok"))
    // Prefix size |x| - ceil(bt*|x|) + 1 guarantees no Jaccard>=bt pair is missed.
    val prefix = ranked.join(sizes, "id")
      .where(col("rank") <= col("ntok") - ceil(lit(bt) * col("ntok")) + 1)
      .select("id", "tok")
    val a = prefix.as("a"); val b = prefix.as("b")
    val cand = a.join(b, col("a.tok") === col("b.tok") && col("a.id") < col("b.id"))
      .select(col("a.id").as("id_a"), col("b.id").as("id_b")).distinct()
    val texts = ds.map(r => (r.id, r.text)).toDF("tid", "text")
    val jacUdf = udf { (x: String, y: String) => Embed.jaccard(x, y) }
    cand
      .join(texts, col("id_a") === col("tid")).withColumnRenamed("text", "text_a").drop("tid")
      .join(texts, col("id_b") === col("tid")).withColumnRenamed("text", "text_b").drop("tid")
      .withColumn("sim", jacUdf(col("text_a"), col("text_b")))
      .select("id_a", "id_b", "sim")
  }

  /** Canopy blocking [McCallum et al.]: a cheap first-attribute token
    * overlap forms canopies (loose threshold ms) and tight blocks
    * (bs >= ms); within canopies a refined all-attribute Jaccard decides
    * matches which then merge blocks transitively.
    */
  def canopyCandidates(spark: SparkSession, ds: Dataset[Record],
                       bs: Double, ms: Double): DataFrame = {
    import spark.implicits._
    require(bs >= ms, s"canopy needs bs >= ms, got $bs < $ms")
    // Cheap metric: Jaccard over the first attribute's tokens only.
    val firstAttr = ds.map { r =>
      val first = r.text.split('|').head
      (r.id, Embed.tokens(first).distinct, r.text)
    }.toDF("id", "toks", "text")
    val expl = firstAttr.select(col("id"), explode(col("toks")).as("tok"))
    val a = expl.as("a"); val b = expl.as("b")
    val cand = a.join(b, col("a.tok") === col("b.tok") && col("a.id") < col("b.id"))
      .select(col("a.id").as("id_a"), col("b.id").as("id_b")).distinct()
    val jacUdf  = udf { (x: Seq[String], y: Seq[String]) =>
      val xs = x.toSet; val ys = y.toSet
      if (xs.isEmpty && ys.isEmpty) 1.0
      else xs.intersect(ys).size.toDouble / xs.union(ys).size
    }
    val fullJac = udf { (x: String, y: String) => Embed.jaccard(x, y) }
    val scored = cand
      .join(firstAttr.select(col("id").as("ia"), col("toks").as("toks_a"), col("text").as("text_a")), col("id_a") === col("ia"))
      .join(firstAttr.select(col("id").as("ib"), col("toks").as("toks_b"), col("text").as("text_b")), col("id_b") === col("ib"))
      .withColumn("cheap", jacUdf(col("toks_a"), col("toks_b")))
      .where(col("cheap") > ms) // canopy membership
      .withColumn("refined", fullJac(col("text_a"), col("text_b")))
      // An edge if tight-cheap OR refined match within the canopy.
      .withColumn("sim", greatest(col("cheap"), col("refined")))
      .select("id_a", "id_b", "sim", "cheap")
    scored
  }

  /** Default cap on block size: transitive closure over low-threshold
    * edges can chain entire noisy datasets into one mega-block, which
    * defeats blocking's purpose (and the O(n^2) per-block phases).
    */
  val MaxBlockSize = 60

  /** Blocks = size-capped connected components of threshold-surviving
    * candidate edges. Edges are processed in descending similarity and a
    * union is applied only while the merged block stays within `cap`, so
    * the strongest links bind first and chains are cut at the weakest
    * links. Returns recordId -> blockId for the ids that appear in
    * `edges`, the block id being the smallest member id; a record in no
    * edge is a singleton block whose id is its own.
    */
  def componentsCapped(edges: Seq[(Long, Long, Double)],
                       cap: Int = MaxBlockSize): Map[Long, Long] = {
    val uf   = new UnionFind(Nil)
    val size = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(1)
    edges.sortBy { case (a, b, sim) => (-sim, a, b) }.foreach { case (a, b, _) =>
      val ra = uf.find(a); val rb = uf.find(b)
      if (ra != rb && size(ra) + size(rb) <= cap) {
        uf.union(a, b)
        val r = uf.find(a)
        size(r) = size(ra) + size(rb)
      }
    }
    val ids = edges.flatMap { case (a, b, _) => Seq(a, b) }.distinct
    ids.groupBy(uf.find).values.flatMap(c => c.map(_ -> c.min)).toMap
  }

  /** End-to-end blocking: the record id -> block id function of
    * `strategy` over `ds`. Only the threshold-surviving edges reach the
    * driver; NoBlocking puts every record in block 0 and runs no query.
    */
  def block(spark: SparkSession, ds: Dataset[Record], strategy: Strategy,
            bt: Double): Long => Long = {
    import spark.implicits._
    def capped(edges: DataFrame): Long => Long = {
      val blockOf = componentsCapped(
        edges.select("id_a", "id_b", "sim").as[(Long, Long, Double)].collect().toSeq)
      id => blockOf.getOrElse(id, id)
    }
    strategy match {
      case NoBlocking => _ => 0L
      case LSH        => capped(lshCandidates(spark, ds, minSim = bt))
      case Filter     => capped(filterCandidates(spark, ds, bt).where(col("sim") >= bt))
      case Canopy =>
        capped(canopyCandidates(spark, ds, bs = math.min(0.95, bt + 0.15), ms = math.max(0.05, bt - 0.15))
          .where(col("cheap") >= math.min(0.95, bt + 0.15) || col("sim") >= bt))
    }
  }

  /** Tune the similarity threshold bt on a labeled validation sample
    * (§5.1's 0.05..0.95 sweep) by maximising pairwise F1.
    */
  def tuneThreshold(sample: Vector[Record], sims: (Record, Record) => Double): Double = {
    val pairs = for {
      i <- sample.indices; j <- i + 1 until sample.size
    } yield (sims(sample(i), sample(j)), sample(i).entityId == sample(j).entityId)
    val thresholds = (1 to 19).map(_ * 0.05)
    val best = thresholds.maxBy { t =>
      val tp = pairs.count { case (s, same) => s >= t && same }
      val fp = pairs.count { case (s, same) => s >= t && !same }
      val fn = pairs.count { case (s, same) => s < t && same }
      if (tp == 0) 0.0 else {
        val p = tp.toDouble / (tp + fp); val r = tp.toDouble / (tp + fn)
        2 * p * r / (p + r)
      }
    }
    best
  }
}
