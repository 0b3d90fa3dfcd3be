package repro.perfbench

import scala.util.Try

/** Interval timer that reports wall time net of hypervisor steal.
  *
  * On a shared virtual machine the host can deschedule the vCPUs; the
  * guest kernel counts that time as `steal` in /proc/stat. Steal accrues
  * only on vCPUs that wanted to run (were busy or stolen), and while it
  * lasts the thread on that vCPU stands still. So an interval's wall time
  * grows by the steal each wanting vCPU suffered: the interval's total
  * steal divided by the average number of vCPUs that wanted to run.
  * Subtracting it makes timings comparable between quiet and contended
  * periods of the host. Where /proc/stat is unavailable the wall time is
  * returned as is.
  */
final class Clock private (t0: Long, c0: Clock.CpuTicks) {
  /** Wall seconds since start, and the same minus the estimated steal delay. */
  def read(): Clock.Reading = {
    val wall = (System.nanoTime() - t0) / 1e9
    val c1   = Clock.ticks()
    Clock.Reading(wall, Clock.net(wall, c0, c1), Clock.stealShare(c0, c1))
  }
  def seconds(): Double = read().net
}

object Clock {
  /** Cumulative ticks of all vCPUs: busy (user, nice, system, irq,
    * softirq) and stolen.
    */
  final case class CpuTicks(busy: Long, steal: Long)

  /** `stealShare` is the stolen part of the CPU time the VM wanted. */
  final case class Reading(wall: Double, net: Double, stealShare: Double)

  /** Kernel clock ticks per second (USER_HZ) used by /proc/stat. */
  val TicksPerSecond = 100.0

  def start(): Clock = new Clock(System.nanoTime(), ticks())

  def ticks(): CpuTicks = Try {
    val src = scala.io.Source.fromFile("/proc/stat")
    try {
      val f = src.getLines().next().trim.split("\\s+").drop(1).map(_.toLong)
      CpuTicks(f(0) + f(1) + f(2) + f(5) + f(6), f(7))
    } finally src.close()
  }.getOrElse(CpuTicks(0, 0))

  /** `wall` minus the steal per vCPU that wanted to run between `a` and `b`. */
  def net(wall: Double, a: CpuTicks, b: CpuTicks): Double = {
    val steal = (b.steal - a.steal) / TicksPerSecond
    val busy  = (b.busy - a.busy) / TicksPerSecond
    val want  = math.max(1.0, (busy + steal) / math.max(wall, 1e-9))
    math.max(0.0, wall - steal / want)
  }

  def stealShare(a: CpuTicks, b: CpuTicks): Double = {
    val steal = b.steal - a.steal
    val total = steal + b.busy - a.busy
    if (total > 0) steal.toDouble / total else 0.0
  }
}
