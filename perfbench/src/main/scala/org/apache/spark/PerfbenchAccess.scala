package org.apache.spark

/** Access to Spark internals the benchmark's tracing needs. */
object PerfbenchAccess {
  /** Block until the listener bus has delivered every posted event. */
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
