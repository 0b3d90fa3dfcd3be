package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import repro.core.{BlockResolver, Clustering, ERParams, LLMCER, Record, Usage}
import repro.llm.{LLMClient, LLMConfig, SimulatedLLM}

/** One timed interval at a layer boundary. Times are `System.nanoTime`
  * readings; `parent` is the id of the span that caused this one (0 for
  * none) and `run` the benchmark operation it belongs to.
  */
final case class Span(id: Long, name: String, start: Long, end: Long, parent: Long, run: Long,
                      meta: Map[String, Double] = Map.empty) {
  def dur: Long = end - start
  def seconds: Double = dur / 1e9
}

/** In-memory span store, written out once at the end of a traced run.
  * Spans arrive from the driver thread, from executor task threads (the
  * per-block wrapper and the LLM decorator) and from the Spark listener
  * thread, so the store is concurrent.
  */
object Tracer {
  @volatile var enabled: Boolean = false
  private val buf = new ConcurrentLinkedQueue[Span]()
  private val ids = new AtomicLong(0)
  /** nanoTime minus wall-clock nanoseconds, to place listener events (epoch ms). */
  private val epochOffsetNs = System.nanoTime() - System.currentTimeMillis() * 1000000L

  def nextId(): Long = ids.incrementAndGet()
  def fromEpochMs(ms: Long): Long = ms * 1000000L + epochOffsetNs
  def add(s: Span): Unit = if (enabled) buf.add(s)
  def spans: Vector[Span] = buf.asScala.toVector

  /** Runs `body` with a fresh span id, recording the span when it ends. */
  def span[A](name: String, parent: Long, run: Long, meta: Map[String, Double] = Map.empty)
             (body: Long => A): A = {
    val id = nextId()
    val t0 = System.nanoTime()
    try body(id) finally add(Span(id, name, t0, System.nanoTime(), parent, run, meta))
  }

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val lines = spans.sortBy(_.start).map { s =>
      val meta = s.meta.map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
      s"""{"id":${s.id},"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end},""" +
        s""""parent":${s.parent},"run":${s.run},"meta":{$meta}}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.asJava)
  }
}

/** Interval arithmetic for self times. */
object Intervals {

  /** Length of [lo, hi) covered by the union of `ivs`. */
  def covered(lo: Long, hi: Long, ivs: Seq[(Long, Long)]): Long = {
    val clipped = ivs.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => a < b }.sortBy(_._1)
    var total = 0L
    var curA = Long.MinValue; var curB = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    if (curB > curA) total += curB - curA
    total
  }

  /** A span's duration minus the part of its interval its children cover. */
  def selfTime(parent: Span, children: Seq[Span]): Long =
    parent.dur - covered(parent.start, parent.end, children.map(c => (c.start, c.end)))
}

/** Counts clustering prompts identical to one already sent: a prompt is
  * the record ids in order plus the number of few-shot demonstrations.
  * Answers are deterministic in the prompt, so every repeat is a call a
  * prompt cache would save.
  */
final class RepeatCounter {
  private val seen = mutable.HashSet.empty[(Seq[Long], Int)]
  private var n    = 0
  private var reps = 0

  def observe(ids: Seq[Long], fewShot: Int): Boolean = {
    n += 1
    val repeat = !seen.add((ids, fewShot))
    if (repeat) reps += 1
    repeat
  }
  def total: Int   = n
  def repeats: Int = reps
}

/** LLMClient decorator for one block: an `llm.call` span per call, marked
  * as an exact repeat of an earlier prompt of the block or as a
  * regeneration (same records as the previous call, reordered), and the
  * answers kept for the MDG replay.
  */
final class TracedLLM(inner: LLMClient, run: Long, parent: Long) extends LLMClient {
  private val repeats = new RepeatCounter
  private var prevIds = Set.empty[Long]
  private val kept    = Vector.newBuilder[Clustering]

  def answers: Vector[Clustering] = kept.result()

  private def timed[A](meta: Map[String, Double])(call: => A): A =
    Tracer.span("llm.call", parent, run, meta)(_ => call)

  override def clusterSet(set: Vector[Record], fewShot: Int): Clustering = {
    val ids    = set.map(_.id)
    val repeat = repeats.observe(ids, fewShot)
    val regen  = ids.toSet == prevIds
    prevIds = ids.toSet
    val answer = timed(Map("records" -> set.size.toDouble, "repeat" -> flag(repeat),
                           "regen" -> flag(regen)))(inner.clusterSet(set, fewShot))
    kept += answer
    answer
  }

  override def matchPair(a: Record, b: Record, fewShot: Int): Boolean =
    timed(Map("records" -> 2.0))(inner.matchPair(a, b, fewShot))

  override def batchMatch(pairs: Vector[(Record, Record)], fewShot: Int): Vector[Boolean] =
    timed(Map("records" -> 2.0 * pairs.size))(inner.batchMatch(pairs, fewShot))

  override def usage: Usage = inner.usage

  private def flag(b: Boolean): Double = if (b) 1.0 else 0.0
}

/** What one traced block resolution leaves for the NRS and MDG replays. */
final case class BlockTrace(run: Long, records: Vector[Record], answers: Vector[Clustering])

object BlockLog {
  private val buf = new ConcurrentLinkedQueue[BlockTrace]()
  def add(b: BlockTrace): Unit = buf.add(b)
  /** Removes and returns the blocks recorded for `run`. */
  def take(run: Long): Vector[BlockTrace] = {
    val mine = buf.asScala.filter(_.run == run).toVector
    mine.foreach(buf.remove)
    mine
  }

  /** The per-block function `LLMCER.run` uses, wrapped in a
    * `resolver.block` span with a traced LLM client.
    */
  def tracedResolve(cfg: LLMConfig, p: ERParams, fewShot: Int, run: Long, parent: Long): LLMCER.BlockFn =
    (bid, recs) =>
      Tracer.span("resolver.block", parent, run, Map("records" -> recs.size.toDouble)) { id =>
        val llm = new TracedLLM(new SimulatedLLM(cfg), run, id)
        val res = BlockResolver.resolve(bid, recs, llm, p, fewShot)
        add(BlockTrace(run, recs, llm.answers))
        res
      }
}

/** Spark listener turning jobs, stages and SQL executions into spans.
  * The driver thread tags its jobs with the operation and parent span
  * through local properties ([[SparkTrace.RunKey]], [[SparkTrace.ParentKey]]).
  */
final class SparkTrace extends SparkListener {
  import SparkTrace._

  private val jobs       = mutable.HashMap.empty[Int, (Long, Tag, Long)] // start, tag, sql execution
  private val stageTag   = mutable.HashMap.empty[Int, Tag]
  private val taskMs     = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Double]]
  private val shuffleOut = mutable.HashMap.empty[Int, Long]
  private val execTag    = mutable.HashMap.empty[Long, Tag]
  private val execs      = mutable.HashMap.empty[Long, (String, Long)] // description, start

  private def tagOf(props: java.util.Properties): Option[Tag] =
    Option(props).flatMap(p => Option(p.getProperty(RunKey)))
      .map(r => Tag(r.toLong, Option(props.getProperty(ParentKey)).map(_.toLong).getOrElse(0L)))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    tagOf(e.properties).foreach { tag =>
      val exec = Option(e.properties.getProperty("spark.sql.execution.id")).map(_.toLong).getOrElse(-1L)
      jobs(e.jobId) = (Tracer.fromEpochMs(e.time), tag, exec)
      e.stageIds.foreach(stageTag(_) = tag)
      if (exec >= 0) execTag.getOrElseUpdate(exec, tag)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.remove(e.jobId).foreach { case (start, tag, exec) =>
      Tracer.add(Span(Tracer.nextId(), "spark.job", start, Tracer.fromEpochMs(e.time),
                      tag.parent, tag.run, Map("sql_execution" -> exec.toDouble)))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageTag.get(e.stageId).foreach { tag =>
      Tracer.add(Span(Tracer.nextId(), "spark.task", Tracer.fromEpochMs(e.taskInfo.launchTime),
                      Tracer.fromEpochMs(e.taskInfo.finishTime), tag.parent, tag.run))
      taskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration.toDouble
      if (e.taskMetrics != null)
        shuffleOut(e.stageId) = shuffleOut.getOrElse(e.stageId, 0L) +
          e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    for {
      tag   <- stageTag.remove(info.stageId)
      start <- info.submissionTime
      end   <- info.completionTime
    } {
      val ts = taskMs.remove(info.stageId).map(_.toVector).getOrElse(Vector.empty)
      Tracer.add(Span(Tracer.nextId(), "spark.stage", Tracer.fromEpochMs(start), Tracer.fromEpochMs(end),
        tag.parent, tag.run, Map(
          "tasks"              -> ts.size.toDouble,
          "task_busy_ms"       -> ts.sum,
          "task_max_ms"        -> (if (ts.isEmpty) 0.0 else ts.max),
          "task_median_ms"     -> (if (ts.isEmpty) 0.0 else Stats.median(ts)),
          "shuffle_write_bytes" -> shuffleOut.remove(info.stageId).getOrElse(0L).toDouble)))
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        execs(s.executionId) = (s.description, Tracer.fromEpochMs(s.time))
      case s: SparkListenerSQLExecutionEnd =>
        for {
          (desc, start) <- execs.remove(s.executionId)
          tag           <- execTag.remove(s.executionId)
        } Tracer.add(Span(Tracer.nextId(), "sql.execution", start, Tracer.fromEpochMs(s.time),
            tag.parent, tag.run, Map("blocking" -> (if (isBlocking(desc)) 1.0 else 0.0))))
      case _ =>
    }
  }
}

object SparkTrace {
  private final case class Tag(run: Long, parent: Long)

  val RunKey    = "perfbench.run"
  val ParentKey = "perfbench.parent"

  /** A SQL execution belongs to the blocking layer when its call site
    * (the user code that triggered it) is in the blocking module.
    */
  def isBlocking(callSite: String): Boolean = callSite.contains("Blocking.scala")
}
