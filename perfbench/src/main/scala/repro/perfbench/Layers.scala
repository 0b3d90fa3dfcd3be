package repro.perfbench

import scala.collection.concurrent.TrieMap

import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.blocking.Blocking
import repro.core.{BlockResolver, Clustering, ERParams, ERResult, LLMCER, MDG, NRS, Record, Usage}
import repro.embed.Embed
import repro.llm.{LLMClient, LLMConfig}

/** The traced run and the per-layer metrics derived from its spans.
  *
  * Layers are timed from outside, around calls into public functions:
  * threshold tuning and `LLMCER.runWith` on the driver thread, a
  * per-block function wrapping `BlockResolver.resolve` on the executor
  * threads, an `LLMClient` decorator around `SimulatedLLM`, and a Spark
  * listener. NRS and MDG run inside `resolve`, so after each traced
  * resolution they are replayed on the same blocks and answers.
  */
object Layers {

  private val paramsOf = TrieMap.empty[Long, ERParams]

  private def tag(sc: SparkContext, run: Long, parent: Long): Unit = {
    sc.setLocalProperty(SparkTrace.RunKey, run.toString)
    sc.setLocalProperty(SparkTrace.ParentKey, parent.toString)
  }

  /** `LLMCER.run` with the default parameters, spelled out so each step
    * gets its span: tuning, then `runWith` with the traced block function.
    */
  def tracedRun(spark: SparkSession, in: Input, run: Long): ERResult = {
    val sc = spark.sparkContext
    try Tracer.span("op", 0, run, Map("records" -> in.records.toDouble)) { op =>
      tag(sc, run, op)
      val ds = in.dataset
      val (bt, floor) = Tracer.span("blocking.tune", op, run) { id =>
        tag(sc, run, id)
        (LLMCER.tunedThreshold(ds, in.strategy), LLMCER.tunedFloor(ds, in.strategy))
      }
      val p = ERParams.default.copy(coherenceFloor = floor)
      paramsOf(run) = p
      Tracer.span("driver.run", op, run) { id =>
        tag(sc, run, id)
        LLMCER.runWith(spark, ds, in.strategy,
                       BlockLog.tracedResolve(LLMConfig.default, p, 0, run, id), Some(bt))
      }
    } finally {
      sc.setLocalProperty(SparkTrace.RunKey, null)
      sc.setLocalProperty(SparkTrace.ParentKey, null)
    }
  }

  private def timed[A](name: String, run: Long)(body: => A)(meta: A => Map[String, Double]): A = {
    val t0 = System.nanoTime()
    val a  = body
    Tracer.add(Span(Tracer.nextId(), name, t0, System.nanoTime(), 0, run, meta(a)))
    a
  }

  /** Replay NRS on every multi-record block of `run` (single-record
    * blocks never reach NRS), and the guardrail loop
    * (`BlockResolver.clusterWithGuardrail`) on the block's recorded LLM
    * answers. The guardrail decides from the answers alone how many it
    * consumes, so the replay repeats all of its MDG work — the tests,
    * the regenerated orders and the final discard — without the LLM.
    */
  def replay(run: Long): Unit = paramsOf.remove(run).foreach { p =>
    BlockLog.take(run).foreach { b =>
      if (b.records.size > 1)
        timed("nrs.replay", run)(NRS.allSets(b.records, p))(s => Map("sets" -> s.size.toDouble))
      if (b.answers.nonEmpty) {
        val llm = new ReplayLLM(b.answers)
        timed("mdg.replay", run) {
          while (llm.remaining) BlockResolver.clusterWithGuardrail(llm.peek.records, llm, p)
        }(_ => Map("answers" -> b.answers.size.toDouble,
                   "rejected" -> b.answers.count(a => MDG.misclustered(a, p.coherenceFloor).nonEmpty).toDouble))
      }
    }
  }

  /** An `LLMClient` that hands out recorded clustering answers in order. */
  private final class ReplayLLM(answers: Vector[Clustering]) extends LLMClient {
    private var next = 0
    def remaining: Boolean = next < answers.size
    def peek: Clustering   = answers(next)
    override def clusterSet(set: Vector[Record], fewShot: Int): Clustering = {
      if (!remaining) throw new IllegalStateException("replay asked for more answers than were recorded")
      next += 1
      answers(next - 1)
    }
    override def matchPair(a: Record, b: Record, fewShot: Int): Boolean =
      throw new UnsupportedOperationException("replay of clustering calls only")
    override def batchMatch(pairs: Vector[(Record, Record)], fewShot: Int): Vector[Boolean] =
      throw new UnsupportedOperationException("replay of clustering calls only")
    override def usage: Usage = Usage.zero
  }

  /** Candidate pairs and threshold-surviving edges of one input. */
  private def candidates(spark: SparkSession, in: Input, bt: Double): (Long, Long) =
    in.strategy match {
      case Blocking.LSH =>
        val c = Blocking.lshCandidates(spark, in.dataset).cache()
        try (c.count(), c.where(col("sim") >= bt).count()) finally c.unpersist()
      case _ => (0L, 0L)
    }

  def metrics(spark: SparkSession, ops: Vector[Main.Op], cores: Int,
              gcSecs: Double, heapMb: Double): Vector[Metric] = {
    val spans  = Tracer.spans
    val byRun  = spans.groupBy(_.run)
    val traced = ops.filter(o => o.traced && o.result.isDefined)
    val plain  = ops.filter(o => !o.traced && o.result.isDefined)
    if (traced.isEmpty) return Vector.empty

    final case class PerOp(values: Map[String, Double], blockMs: Vector[Double], taskMs: Vector[Double])
    val perOp = traced.map { o =>
      val ss = byRun.getOrElse(o.run, Vector.empty)
      def named(n: String) = ss.filter(_.name == n)
      val op      = named("op").head
      val tune    = named("blocking.tune").head
      val drv     = named("driver.run").head
      val execs   = named("sql.execution").filter(_.parent == drv.id).sortBy(_.start)
      val blockEx = execs.filter(_.meta("blocking") == 1.0)
      // Blocking runs from its first query to the next query of the
      // driver; the gap after its last query is the driver-side
      // component computation.
      val (blockIv, compNs) = blockEx.headOption match {
        case None => ((drv.start, drv.start), 0L)
        case Some(first) =>
          val next = execs.find(e => e.start > first.start && e.meta("blocking") == 0.0)
            .map(_.start).getOrElse(drv.end)
          val lastEnd = blockEx.filter(_.start < next).map(_.end).max
          ((first.start, next), math.max(0L, next - lastEnd))
      }
      val resolver = named("resolver.block")
      val llm      = named("llm.call")
      val nrs      = named("nrs.replay")
      val mdg      = named("mdg.replay")
      val stages   = named("spark.stage")
      val slowest  = stages.sortBy(-_.dur).headOption
      val blockNs  = blockIv._2 - blockIv._1
      val resolverWall = Intervals.covered(op.start, op.end, resolver.map(s => (s.start, s.end)))
      val blocking     = Span(0, "blocking.block", blockIv._1, blockIv._2, drv.id, o.run)
      val driverSelf   = Intervals.selfTime(drv, blocking +: resolver)
      def sec(ns: Long) = ns / 1e9
      def sum(xs: Seq[Span], k: String) = xs.map(_.meta.getOrElse(k, 0.0)).sum
      val taskBusy = sum(stages, "task_busy_ms") / 1e3
      val res      = o.result.get
      PerOp(Map(
        "blocking.tune_s"        -> tune.seconds,
        "blocking.block_s"       -> sec(blockNs),
        "blocking.components_s"  -> sec(compNs),
        "blocking.blocks"        -> resolver.size.toDouble,
        "blocking.block_size_max" -> resolver.map(_.meta("records")).maxOption.getOrElse(0.0),
        "driver.run_s"           -> sec(driverSelf),
        "spark.jobs"             -> named("spark.job").size.toDouble,
        "spark.tasks"            -> named("spark.task").size.toDouble,
        "spark.shuffle_write_mb" -> sum(stages, "shuffle_write_bytes") / 1e6,
        "spark.task_busy_s"      -> taskBusy,
        "spark.parallel_eff"     -> taskBusy / (op.seconds * cores),
        "spark.stage_max_s"      -> slowest.map(_.seconds).getOrElse(0.0),
        "spark.stage_skew"       -> slowest.map(s => s.meta("task_max_ms") /
                                      math.max(1.0, s.meta("task_median_ms"))).getOrElse(0.0),
        "resolver.busy_s"        -> resolver.map(_.seconds).sum,
        "resolver.levels"        -> res.setsPerLevel.size.toDouble,
        "resolver.sets_l0"       -> res.setsPerLevel.headOption.getOrElse(0).toDouble,
        "nrs.busy_s"             -> nrs.map(_.seconds).sum,
        "nrs.sets"               -> sum(nrs, "sets"),
        "mdg.busy_s"             -> mdg.map(_.seconds).sum,
        "mdg.answers"            -> sum(mdg, "answers"),
        "mdg.rejected"           -> sum(mdg, "rejected"),
        "mdg.regen_calls"        -> sum(llm, "regen"),
        "llm.calls"              -> llm.size.toDouble,
        "llm.repeats"            -> sum(llm, "repeat"),
        "llm.busy_s"             -> llm.map(_.seconds).sum,
        "share.tune"             -> tune.dur.toDouble / op.dur,
        "share.blocking"         -> blockNs.toDouble / op.dur,
        "share.resolver"         -> resolverWall.toDouble / op.dur,
        "share.driver"           -> driverSelf.toDouble / op.dur,
        "share.spark_idle"       -> (op.dur - Intervals.covered(op.start, op.end,
                                      named("spark.task").map(s => (s.start, s.end)))).toDouble / op.dur,
      ), resolver.filter(_.meta("records") > 1).map(_.dur / 1e6),
         named("spark.task").map(_.dur / 1e6))
    }
    def mean(k: String) = Stats.mean(perOp.map(_.values(k)))
    def q(xs: Seq[Double], p: Double) = if (xs.isEmpty) 0.0 else Stats.quantile(xs, p)
    val blockMs = perOp.flatMap(_.blockMs)

    // Per distinct input: candidate pairs and embedding cost.
    val inputs = traced.groupBy(_.input.key).values.map(_.head).toVector
    val cand   = inputs.map(o => candidates(spark, o.input, o.result.get.blockThreshold))
    val candN  = Stats.mean(cand.map(_._1.toDouble))
    val edgeN  = Stats.mean(cand.map(_._2.toDouble))
    val embedS = Stats.mean(inputs.map { o =>
      val recs = o.input.dataset.collect().toVector
      val t0 = System.nanoTime(); recs.foreach(r => Embed.embed(r.text)); (System.nanoTime() - t0) / 1e9
    })

    val resolverBusy = mean("resolver.busy_s")
    val overhead = Stats.median(traced.map(_.seconds)) -
      (if (plain.isEmpty) 0.0 else Stats.median(plain.map(_.seconds)))
    val n = s"mean over ${traced.size} traced calls"
    Vector(
      Metric("blocking.tune_s", mean("blocking.tune_s"), "s", n),
      Metric("blocking.block_s", mean("blocking.block_s"), "s"),
      Metric("blocking.components_s", mean("blocking.components_s"), "s"),
      Metric("blocking.candidates", candN, "count", s"${inputs.size} inputs"),
      Metric("blocking.edges", edgeN, "count"),
      Metric("blocking.edge_yield", if (candN > 0) edgeN / candN else 0.0, "ratio"),
      Metric("blocking.blocks", mean("blocking.blocks"), "count"),
      Metric("blocking.block_size_max", mean("blocking.block_size_max"), "count"),
      Metric("driver.run_s", mean("driver.run_s"), "s", "self time"),
      Metric("spark.jobs", mean("spark.jobs"), "count"),
      Metric("spark.tasks", mean("spark.tasks"), "count"),
      Metric("spark.task_p50_ms", q(perOp.flatMap(_.taskMs), 0.5), "ms"),
      Metric("spark.shuffle_write_mb", mean("spark.shuffle_write_mb"), "MB"),
      Metric("spark.task_busy_s", mean("spark.task_busy_s"), "s"),
      Metric("spark.parallel_eff", mean("spark.parallel_eff"), "ratio", s"$cores cores"),
      Metric("spark.stage_max_s", mean("spark.stage_max_s"), "s"),
      Metric("spark.stage_skew", mean("spark.stage_skew"), "ratio"),
      Metric("resolver.busy_s", resolverBusy, "s"),
      Metric("resolver.block_p50_ms", q(blockMs, 0.5), "ms", s"${blockMs.size} multi-record blocks"),
      Metric("resolver.block_p99_ms", q(blockMs, 0.99), "ms"),
      Metric("resolver.block_max_ms", q(blockMs, 1.0), "ms"),
      Metric("resolver.levels", mean("resolver.levels"), "count"),
      Metric("resolver.sets_l0", mean("resolver.sets_l0"), "count"),
      Metric("nrs.busy_s", mean("nrs.busy_s"), "s", "replayed"),
      Metric("nrs.sets", mean("nrs.sets"), "count"),
      Metric("mdg.busy_s", mean("mdg.busy_s"), "s", "replayed"),
      Metric("mdg.reject_ratio", ratio(perOp.map(_.values("mdg.rejected")), perOp.map(_.values("mdg.answers"))), "ratio"),
      Metric("mdg.regen_calls", mean("mdg.regen_calls"), "count"),
      Metric("cmr.self_s", resolverBusy - mean("llm.busy_s") - mean("nrs.busy_s") - mean("mdg.busy_s"), "s",
             "resolver - llm - nrs - mdg"),
      Metric("llm.calls", mean("llm.calls"), "count"),
      Metric("llm.busy_s", mean("llm.busy_s"), "s"),
      Metric("llm.repeat_ratio", ratio(perOp.map(_.values("llm.repeats")), perOp.map(_.values("llm.calls"))), "ratio"),
      Metric("embed.busy_s", embedS, "s", "per input, one thread"),
      Metric("jvm.gc_s", gcSecs / ops.size, "s", "per call"),
      Metric("jvm.heap_peak_mb", heapMb, "MB"),
      Metric("share.tune", mean("share.tune"), "ratio", "of traced call wall time"),
      Metric("share.blocking", mean("share.blocking"), "ratio"),
      Metric("share.resolver", mean("share.resolver"), "ratio"),
      Metric("share.driver", mean("share.driver"), "ratio"),
      Metric("share.spark_idle", mean("share.spark_idle"), "ratio", "no Spark task running"),
      Metric("trace.overhead_s", overhead, "s", "median traced - median untraced call"),
    )
  }

  private def ratio(num: Seq[Double], den: Seq[Double]): Double =
    if (den.sum > 0) num.sum / den.sum else 0.0
}
