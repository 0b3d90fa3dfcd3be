package repro.perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.blocking.Blocking
import repro.core.{Metrics, Record}
import repro.data.{DatasetProfile, ERGen}

/** One resolution input: a generated dataset, cached and counted before
  * timing, resolved with `strategy`.
  */
final case class Input(key: String, strategy: Blocking.Strategy, ids: Vector[Long],
                       truth: Metrics.Partition, dataset: Dataset[Record]) {
  def records: Int = ids.size
}

object Input {
  /** Generate `p` as a cached, counted Dataset. */
  def batch(spark: SparkSession, p: DatasetProfile, strategy: Blocking.Strategy): Input = {
    import spark.implicits._
    val ds = ERGen.records(spark, p).cache()
    val labels = ds.map(r => (r.id, r.entityId)).collect().toVector.sortBy(_._1)
    Input(p.name + "#" + p.seed, strategy, labels.map(_._1), Metrics.truthOf(labels), ds)
  }
}

/** The inputs of one run, visited round-robin. The first `warmups` are
  * resolved once, untimed, before measuring. LLM usage and quality are
  * averaged over the first resolution of each of the first `scored`
  * inputs, which every run reaches however slow it is, so those metrics
  * depend on the seed alone.
  */
final case class Prepared(inputs: Vector[Input], warmups: Int, scored: Int) {
  def release(): Unit = inputs.foreach(_.dataset.unpersist())
}

/** A named workload: how to build its inputs from the workload seed. */
sealed trait Workload {
  def name: String
  def prepare(spark: SparkSession, seed: Long): Prepared
}

object Workload {
  val all: Vector[Workload] = Vector(LshAlaska, NoBlockAs)

  def byName(n: String): Workload = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $n (have ${all.map(_.name).mkString(", ")})"))

  /** A profile seed derived from the workload seed and a stream index,
    * so each input of a run is distinct and the run is reproducible.
    */
  def derive(seed: Long, stream: Long): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + stream * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    (z ^ (z >>> 31)) & Long.MaxValue
  }

  private def sized(p: DatasetProfile, n: Int, seed: Long, stream: Long): DatasetProfile =
    p.scaledTo(n).copy(seed = derive(seed, stream))

  /** Dense Alaska records under LSH, resolved as a batch: the candidate
    * self-join dominates (Ed about 8 puts many pairs into shared
    * buckets), while blocks stay small for the resolver. Three datasets
    * per run narrow the seed-to-seed spread of every metric.
    */
  object LshAlaska extends Workload {
    val name    = "lsh-alaska"
    val Records = 1500
    def prepare(spark: SparkSession, seed: Long): Prepared =
      Prepared(Vector.tabulate(3)(i =>
        Input.batch(spark, sized(DatasetProfile.alaska, Records, seed, i + 1L), Blocking.LSH)), 1, 3)
  }

  /** The noisy single-attribute AS profile with no blocking: one block
    * holding every record, resolved by one task, so NRS, the LLM calls,
    * MDG and the deep CMR hierarchy dominate and blocking is idle. Three
    * datasets per run, as for [[LshAlaska]].
    */
  object NoBlockAs extends Workload {
    val name    = "noblock-as"
    val Records = 800
    def prepare(spark: SparkSession, seed: Long): Prepared =
      Prepared(Vector.tabulate(3)(i =>
        Input.batch(spark, sized(DatasetProfile.as, Records, seed, i + 1L), Blocking.NoBlocking)), 1, 3)
  }
}
