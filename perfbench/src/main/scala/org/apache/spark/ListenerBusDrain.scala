package org.apache.spark

/** Waits until every queued listener event has been delivered. Spark keeps
  * the listener bus package-private, hence this one-line bridge.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
