package repro.perfbench

import scala.collection.mutable

/** Output checks applied to every resolved input. */
object Checks {

  /** Why `partition` is not a partition of exactly `ids` (each id in
    * exactly one non-empty cluster), or None when it is.
    */
  def partitionError(partition: Seq[Set[Long]], ids: Seq[Long]): Option[String] = {
    val expected = ids.toSet
    val seen     = mutable.HashSet.empty[Long]
    val dup      = mutable.LinkedHashSet.empty[Long]
    var empty    = 0
    partition.foreach { c =>
      if (c.isEmpty) empty += 1
      c.foreach(id => if (!seen.add(id)) dup += id)
    }
    val missing = expected.diff(seen)
    val extra   = seen.diff(expected)
    val errs = Seq(
      if (expected.size != ids.size) Some(s"${ids.size - expected.size} duplicate input ids") else None,
      if (empty > 0) Some(s"$empty empty clusters") else None,
      if (dup.nonEmpty) Some(s"${dup.size} ids in several clusters, e.g. ${dup.take(3).mkString(",")}") else None,
      if (missing.nonEmpty) Some(s"${missing.size} input ids unassigned, e.g. ${missing.take(3).mkString(",")}") else None,
      if (extra.nonEmpty) Some(s"${extra.size} ids not in the input, e.g. ${extra.take(3).mkString(",")}") else None,
    ).flatten
    if (errs.isEmpty) None else Some(errs.mkString("; "))
  }

  /** The deterministic part of one resolution: LLM usage and quality
    * depend only on the input, so a repeat of the same input must match.
    */
  final case class Outcome(calls: Long, tokens: Long, apiMs: Double, acc: Double, fp: Double)

  /** Remembers the first outcome per input and reports later ones that
    * differ from it.
    */
  final class DriftTracker {
    private val first = mutable.HashMap.empty[String, Outcome]

    def observe(input: String, o: Outcome): Option[String] =
      first.get(input) match {
        case None                 => first(input) = o; None
        case Some(f) if f == o    => None
        case Some(f)              => Some(s"input $input drifted: first $f, now $o")
      }
  }
}
