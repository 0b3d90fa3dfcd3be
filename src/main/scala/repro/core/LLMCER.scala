package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.blocking.Blocking
import repro.embed.Embed
import repro.llm.{LLMConfig, SimulatedLLM}

/** End-to-end result of an ER run over a dataset. */
final case class ERResult(
    partition: Vector[Set[Long]],
    usage: Usage,
    setsPerLevel: Vector[Int],
    numBlocks: Int,
    blockThreshold: Double,
)

/** The LLM-CER Spark driver (Algorithm 4 at dataset scale), plus the
  * generic per-block execution harness shared with every baseline.
  *
  * Dataflow: blocking produces a record id -> block id function; records
  * are grouped by it with `groupByKey(...).mapGroups`, each group
  * resolved by a per-block function running in the executor task (the
  * "LLM-based clustering UDF per partition"); assignments and telemetry
  * are collected and merged into the final partition on the driver.
  */
object LLMCER {

  /** Per-block resolution function: (blockId, records) -> BlockResult.
    * Must be serializable — it ships to executors.
    */
  type BlockFn = (Long, Vector[Record]) => BlockResult

  /** Serialized per-block outcome row (public: Catalyst codegen needs
    * accessible accessors).
    */
  final case class Outcome(
      block_id: Long, ids: Seq[Long], clusters: Seq[Int],
      apiCalls: Long, inTok: Long, outTok: Long, latMs: Double, levels: Seq[Int])

  /** Tune the blocking threshold on a labeled sample (§5.1). */
  def tunedThreshold(ds: Dataset[Record], strategy: Blocking.Strategy): Double =
    Blocking.tuneThreshold(validationSample(ds), simOf(strategy))

  /** The labeled validation sample both tunings read: the 600 lowest ids. */
  private def validationSample(ds: Dataset[Record]): Vector[Record] =
    ds.sort("id").limit(600).collect().toVector

  private def simOf(strategy: Blocking.Strategy): (Record, Record) => Double =
    strategy match {
      case Blocking.LSH => (a, b) => a.cos(b)
      case _            => (a, b) => Embed.jaccard(a.text, b.text)
    }

  /** MDG coherence floor: the 5th percentile of same-entity pair
    * similarities on the validation sample. Catches merge-hallucination
    * residue (cross-entity co-clustering) while falsely splitting at
    * most ~5% of genuinely-same-entity placements.
    */
  def tunedFloor(ds: Dataset[Record], strategy: Blocking.Strategy): Double = {
    val sample = validationSample(ds)
    val sim    = simOf(strategy)
    val sameSims = (for {
      i <- sample.indices; j <- i + 1 until sample.size
      if sample(i).entityId == sample(j).entityId
    } yield sim(sample(i), sample(j))).sorted
    if (sameSims.isEmpty) 0.3
    else sameSims(math.max(0, (0.05 * sameSims.size).toInt))
  }

  /** Generic run: block, then resolve each block with `fn`. */
  def runWith(spark: SparkSession, ds: Dataset[Record], strategy: Blocking.Strategy,
              fn: BlockFn, btOverride: Option[Double] = None): ERResult = {
    import spark.implicits._
    val bt = btOverride.getOrElse(tunedThreshold(ds, strategy))
    val blockOf = Blocking.block(spark, ds, strategy, bt)

    val outcomes = ds
      .groupByKey(r => blockOf(r.id))
      .mapGroups { (bid, iter) =>
        val recs = iter.toVector.sortBy(_.id)
        val res  = fn(bid, recs)
        val (ids, cls) = res.assignment.toSeq.sortBy(_._1).unzip
        Outcome(bid, ids, cls, res.usage.apiCalls, res.usage.inputTokens,
                res.usage.outputTokens, res.usage.latencyMs, res.setsPerLevel)
      }
      .collect()
      .toVector

    val partition = outcomes.flatMap { o =>
      o.ids.zip(o.clusters).groupBy(_._2).values.map(_.map(_._1).toSet)
    }
    val usage = outcomes.map(o => Usage(o.apiCalls, o.inTok, o.outTok, o.latMs))
      .foldLeft(Usage.zero)(_ + _)
    val maxLv = outcomes.map(_.levels.size).maxOption.getOrElse(0)
    val levels = Vector.tabulate(maxLv)(i =>
      outcomes.map(o => if (i < o.levels.size) o.levels(i) else 0).sum)
    ERResult(partition, usage, levels, outcomes.size, bt)
  }

  /** `params` with a zero coherence floor replaced by the validation-tuned
    * one (see tunedFloor): MDG's similarity follows the block-creation
    * method (§5.2). Both `run` and the experiment harness resolve LLM-CER's
    * parameters here.
    */
  def withTunedFloor(ds: Dataset[Record], strategy: Blocking.Strategy,
                     params: ERParams): ERParams =
    if (params.coherenceFloor > 0) params
    else params.copy(coherenceFloor = tunedFloor(ds, strategy))

  /** LLM-CER's per-block function: NRS + MDG + CMR with a fresh client. */
  def resolver(p: ERParams, cfg: LLMConfig, fewShot: Int): BlockFn =
    (bid, recs) => BlockResolver.resolve(bid, recs, new SimulatedLLM(cfg), p, fewShot)

  /** The paper's method: LLM-CER with NRS + MDG + CMR per block. */
  def run(spark: SparkSession, ds: Dataset[Record],
          strategy: Blocking.Strategy = Blocking.LSH,
          params: ERParams = ERParams.default,
          cfg: LLMConfig = LLMConfig.default,
          fewShot: Int = 0): ERResult = {
    val bt = tunedThreshold(ds, strategy)
    val fn = resolver(withTunedFloor(ds, strategy, params), cfg, fewShot)
    runWith(spark, ds, strategy, fn, Some(bt))
  }
}
