package org.apache.spark

import org.apache.spark.scheduler.StageInfo

/** Test access to the `private[spark]` state a listener-based check needs. */
object SparkTestAccess {

  /** Block until every event posted so far has reached every listener. */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Whether the stage writes shuffle output (it is a shuffle map stage). */
  def writesShuffle(stage: StageInfo): Boolean = stage.shuffleDepId.isDefined
}
