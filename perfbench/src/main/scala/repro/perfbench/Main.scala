package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import repro.core.{ERResult, LLMCER, Metrics}

/** Benchmark entry point:
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
  *
  * Sets up (Spark session, generated inputs, warm-up) several times and
  * keeps the median as `setup_s`, then resolves inputs through
  * `LLMCER.run` in a closed loop for `--seconds`, checking every output.
  * The last stdout line is one JSON object: the end-to-end metrics with
  * `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when an
  * output check failed.
  */
object Main {

  val SetupRounds = 5

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        spans: Option[java.nio.file.Path])

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Args(Workload.byName(need("workload")), need("seed").toLong, seconds, trace,
         kv.get("spans").map(java.nio.file.Paths.get(_)))
  }

  /** One timed resolution. `outcome` is set only when the output passed
    * the partition check.
    */
  final case class Op(run: Long, input: Input, seconds: Double, result: Option[ERResult],
                      outcome: Option[Checks.Outcome], traced: Boolean)

  /** Failed operations, and drift flags for repeated inputs. */
  final class Failures {
    var count  = 0
    var drifts = 0
    val messages = mutable.ArrayBuffer.empty[String]
    val tracker  = new Checks.DriftTracker
    def fail(msg: String): Unit  = { count += 1; messages += msg; System.err.println(s"FAILED: $msg") }
    def drift(msg: String): Unit = { drifts += 1; messages += msg; System.err.println(s"DRIFT: $msg") }
  }

  def main(argv: Array[String]): Unit = {
    val args = try parse(argv) catch {
      case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2)
    }
    val code = try run(args) catch {
      case NonFatal(e) => e.printStackTrace(); 1
    }
    sys.exit(code)
  }

  def run(args: Args): Int = {
    val wl       = args.workload
    val failures = new Failures
    var spark: SparkSession = null
    var prepared: Prepared  = null
    val setupTimes = (1 to SetupRounds).map { _ =>
      if (spark != null) { prepared.release(); spark.stop() }
      val clock = Clock.start()
      spark    = repro.jobs.JobSpark.session("perfbench")
      prepared = wl.prepare(spark, args.seed)
      clock.seconds()
    }
    val warm0 = System.nanoTime()
    val warm  = prepared.inputs.take(prepared.warmups)
      .map(in => resolveInput(spark, in, run = 0, traced = false, failures))
    System.err.println(f"set-up rounds ${setupTimes.mkString(" ")} s, " +
                       f"warm-up ${(System.nanoTime() - warm0) / 1e9}%.3f s")
    if (args.trace) {
      spark.sparkContext.addSparkListener(new SparkTrace)
      Tracer.enabled = true
    }

    val gc0 = gcMillis()
    ManagementFactory.getMemoryPoolMXBeans.asScala.foreach(_.resetPeakUsage())
    val ops   = Vector.newBuilder[Op]
    val steps = mutable.ArrayBuffer.empty[Double]
    val window = Clock.start()
    val start  = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    var i = 0
    // Cover the scored inputs, then start another step only if a typical
    // step still ends within the window, so a run measures for about
    // --seconds.
    while (i < prepared.scored || elapsed + Stats.median(steps.toSeq) <= args.seconds) {
      val t0 = elapsed
      val in = prepared.inputs(i % prepared.inputs.size)
      // A traced run alternates untraced and traced resolutions of the
      // same input; their difference is the tracing overhead.
      ops += resolveInput(spark, in, 2L * i + 1, traced = false, failures)
      if (args.trace) ops += resolveInput(spark, in, 2L * i + 2, traced = true, failures)
      steps += elapsed - t0
      i += 1
    }
    val all    = ops.result()
    val steal  = window.read().stealShare
    val gcSecs = (gcMillis() - gc0) / 1e3
    val heapMb = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / 1e6

    val metrics =
      if (!args.trace) EndToEnd.metrics(Stats.median(setupTimes), all, prepared)
      else {
        org.apache.spark.PerfbenchAccess.drainListeners(spark.sparkContext)
        Tracer.enabled = false
        val layer = Layers.metrics(spark, all, spark.sparkContext.defaultParallelism, gcSecs, heapMb)
        args.spans.foreach(Tracer.writeJsonLines)
        layer
      }
    prepared.release()
    spark.stop()

    // Warm-up resolutions are checked too, so they count as attempted.
    val attempted = all.size + warm.size
    println(s"workload ${wl.name} seed ${args.seed} trace ${if (args.trace) 1 else 0}: " +
            s"$attempted ops, ${failures.count} failed, ${failures.drifts} drifted; setup rounds " +
            setupTimes.map(t => f"$t%.3f").mkString(" ") + " s; " +
            f"host steal ${100 * steal}%.1f%% of the CPU time wanted while measuring")
    failures.messages.take(5).foreach(m => println(s"  check: $m"))
    metrics.foreach { m =>
      println(f"  ${m.name}%-26s ${Json.num(m.value)}%-24s ${m.unit}" +
              (if (m.note.isEmpty) "" else "  " + m.note))
    }
    println(Json.result(failures.count == 0, attempted, failures.count, metrics))
    if (failures.count == 0) 0 else 1
  }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Resolve `in`, timing the call alone, then check the output. */
  def resolveInput(spark: SparkSession, in: Input, run: Long, traced: Boolean, failures: Failures): Op = {
    val clock = Clock.start()
    val res =
      try Some(if (traced) Layers.tracedRun(spark, in, run)
               else LLMCER.run(spark, in.dataset, in.strategy))
      catch {
        case NonFatal(e) =>
          failures.fail(s"run $run on ${in.key}: ${e.getClass.getSimpleName}: ${e.getMessage}")
          None
      }
    val time = clock.read()
    val secs = time.net
    System.err.println(f"call $run ${in.key}: wall ${time.wall}%.3f s, net of steal $secs%.3f s, " +
                       f"steal ${100 * time.stealShare}%.1f%%")
    val outcome = res.flatMap { r =>
      Checks.partitionError(r.partition, in.ids) match {
        case Some(err) => failures.fail(s"run $run on ${in.key}: $err"); None
        case None =>
          val o = Checks.Outcome(r.usage.apiCalls, r.usage.tokens, r.usage.latencyMs,
                                 Metrics.acc(r.partition, in.truth),
                                 Metrics.fpMeasure(r.partition, in.truth))
          failures.tracker.observe(in.key, o).foreach(failures.drift)
          Some(o)
      }
    }
    if (traced) Layers.replay(run)
    Op(run, in, secs, res, outcome, traced)
  }
}

/** One reported metric. */
final case class Metric(name: String, value: Double, unit: String, note: String = "")

object Json {
  /** A finite number with all its digits (non-finite values become 0). */
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "0.0" else v.toString

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** End-to-end metrics of an untraced run. */
object EndToEnd {
  def metrics(setupS: Double, ops: Vector[Main.Op], prepared: Prepared): Vector[Metric] = {
    val ok = ops.filter(_.outcome.isDefined)
    if (ok.isEmpty) return Vector.empty
    // Each distinct input weighs the same, however often a run visits it.
    val perInput = ok.groupBy(_.input.key).values.toVector
    val rate = perInput.map(_.head.input.records).sum /
               perInput.map(os => Stats.median(os.map(_.seconds))).sum
    val scored = prepared.inputs.take(prepared.scored).map(_.key).toSet
    val outs   = perInput.filter(os => scored(os.head.input.key)).flatMap(_.head.outcome)
    def avg(f: Checks.Outcome => Double) = Stats.mean(outs.map(f))
    Vector(
      Metric("setup_s", setupS, "s", s"median of ${Main.SetupRounds} set-up rounds"),
      Metric("records_per_s", rate, "records/s", s"${perInput.size} inputs, ${ok.size} calls"),
      Metric("llm_calls", avg(_.calls.toDouble), "count", s"per call, mean over ${outs.size} inputs"),
      Metric("llm_tokens", avg(_.tokens.toDouble), "count", "per call"),
      Metric("llm_api_s", avg(_.apiMs / 1e3), "s", "simulated API time per call"),
      Metric("acc", avg(_.acc), "ratio"),
      Metric("fp", avg(_.fp), "ratio"),
    )
  }
}
