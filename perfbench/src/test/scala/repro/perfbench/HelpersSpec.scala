package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class HelpersSpec extends AnyFunSuite {

  // ---- partition validator ----

  test("a partition of exactly the input ids passes") {
    assert(Checks.partitionError(Seq(Set(1L, 2L), Set(3L)), Seq(1L, 2L, 3L)).isEmpty)
  }

  test("an id in two clusters fails") {
    val err = Checks.partitionError(Seq(Set(1L, 2L), Set(2L, 3L)), Seq(1L, 2L, 3L))
    assert(err.exists(_.contains("several clusters")))
  }

  test("an unassigned input id fails") {
    val err = Checks.partitionError(Seq(Set(1L)), Seq(1L, 2L))
    assert(err.exists(_.contains("unassigned")))
  }

  test("an id not in the input fails") {
    val err = Checks.partitionError(Seq(Set(1L, 9L)), Seq(1L))
    assert(err.exists(_.contains("not in the input")))
  }

  test("an empty cluster fails") {
    assert(Checks.partitionError(Seq(Set(1L), Set.empty[Long]), Seq(1L)).exists(_.contains("empty")))
  }

  test("drift is reported only when a repeat of an input differs") {
    val t = new Checks.DriftTracker
    val o = Checks.Outcome(10, 100, 2.5, 0.9, 0.8)
    assert(t.observe("a", o).isEmpty)
    assert(t.observe("a", o).isEmpty)
    assert(t.observe("b", o.copy(calls = 11)).isEmpty)
    assert(t.observe("a", o.copy(acc = 0.85)).isDefined)
  }

  // ---- quantiles ----

  test("quantiles interpolate linearly") {
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.quantile(Seq(0.0, 10.0), 0.25) == 2.5)
    assert(Stats.quantile(Seq(7.0), 0.99) == 7.0)
  }

  // ---- self time ----

  private def span(start: Long, end: Long) = Span(0, "s", start, end, 0, 0)

  test("self time subtracts the union of overlapping children once") {
    val parent = span(0, 100)
    assert(Intervals.selfTime(parent, Seq(span(10, 30), span(20, 40), span(60, 70))) == 100 - 30 - 10)
  }

  test("children are clipped to the parent's interval") {
    assert(Intervals.selfTime(span(0, 100), Seq(span(-50, 10), span(90, 500))) == 80)
    assert(Intervals.selfTime(span(0, 100), Seq(span(200, 300))) == 100)
  }

  test("nested and touching children are covered without double counting") {
    assert(Intervals.covered(0, 100, Seq((0L, 50L), (10L, 20L), (50L, 60L))) == 60)
    assert(Intervals.selfTime(span(0, 100), Seq.empty) == 100)
  }

  // ---- repeat-prompt counter ----

  test("a repeat is the same ids in the same order with the same few-shot count") {
    val c = new RepeatCounter
    assert(!c.observe(Seq(1L, 2L, 3L), 0))
    assert(!c.observe(Seq(3L, 2L, 1L), 0)) // reordered: a new prompt
    assert(!c.observe(Seq(1L, 2L, 3L), 2)) // different few-shot count
    assert(c.observe(Seq(1L, 2L, 3L), 0))
    assert(c.observe(Seq(3L, 2L, 1L), 0))
    assert(c.total == 5 && c.repeats == 2)
  }

  // ---- steal-net wall time ----

  test("steal is subtracted per vCPU that wanted to run") {
    val a = Clock.CpuTicks(busy = 0, steal = 0)
    // 10 s wall on 4 vCPUs that all wanted to run: 28 s busy, 12 s stolen, 3 s each.
    assert(Clock.net(10.0, a, Clock.CpuTicks(2800, 1200)) == 7.0)
    // Two of 4 vCPUs wanted to run (16 s busy + 4 s stolen): 2 s each.
    assert(Clock.net(10.0, a, Clock.CpuTicks(1600, 400)) == 8.0)
    // One vCPU carries all of the steal.
    assert(Clock.net(10.0, a, Clock.CpuTicks(900, 100)) == 9.0)
    assert(Clock.stealShare(a, Clock.CpuTicks(900, 100)) == 0.1)
  }

  test("no steal leaves the wall time unchanged") {
    assert(Clock.net(3.5, Clock.CpuTicks(10, 5), Clock.CpuTicks(1410, 5)) == 3.5)
    assert(Clock.net(2.0, Clock.CpuTicks(0, 0), Clock.CpuTicks(0, 0)) == 2.0)
  }
}
