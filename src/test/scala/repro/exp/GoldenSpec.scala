package repro.exp

import repro.SparkSpec
import repro.blocking.Blocking
import repro.data.DatasetProfile

/** Pins end-to-end `Harness.run` output on small profiles, so a change
  * meant to preserve behaviour is checked against recorded numbers
  * rather than by hand. ACC and FP must match within 1e-9; LLM calls and
  * record sets per CMR level must match exactly (the baselines report
  * no levels).
  *
  * If a change moves these numbers on purpose, regenerate them and say
  * why in the change's notes.
  */
class GoldenSpec extends SparkSpec {
  import GoldenSpec.Golden

  private def mini(base: DatasetProfile, n: Int) = DatasetProfile.mini(base, n)
  import DatasetProfile.{alaska, as, citeseer}
  import Harness._

  private val goldens = Vector(
    Golden("LLM-CER Citeseer-300", mini(citeseer, 300), MCer, Blocking.LSH,
           0.8233333333333334, 0.8982222222222225, 71, Vector(65, 6)),
    Golden("LLM-CER AS-300", mini(as, 300), MCer, Blocking.LSH,
           0.7033333333333334, 0.8161943319838053, 171, Vector(85, 46, 25, 6, 5, 4)),
    Golden("LLM-CER Alaska-300", mini(alaska, 300), MCer, Blocking.LSH,
           0.7366666666666667, 0.8207392473118282, 69, Vector(53, 14, 2)),
    Golden("Pairwise AS-300", mini(as, 300), MPair, Blocking.LSH,
           0.8333333333333334, 0.8974397031539889, 303, Vector.empty),
    Golden("BQ AS-300", mini(as, 300), MBq, Blocking.LSH,
           0.9366666666666666, 0.9632871972318339, 106, Vector.empty),
    Golden("Booster AS-300", mini(as, 300), MBooster, Blocking.LSH,
           0.8, 0.8886728971962617, 138, Vector.empty),
    Golden("CrowdER AS-300", mini(as, 300), MCrowd, Blocking.LSH,
           0.72, 0.8314756258234519, 97, Vector.empty),
    Golden("LLM-CER Citeseer-250, Filter", mini(citeseer, 250), MCer, Blocking.Filter,
           0.8, 0.8880179775280903, 60, Vector(53, 7)),
    Golden("LLM-CER Citeseer-250, Canopy", mini(citeseer, 250), MCer, Blocking.Canopy,
           0.816, 0.8967126948775062, 73, Vector(57, 16)),
    Golden("LLM-CER Citeseer-250, NoBlocking", mini(citeseer, 250), MCer, Blocking.NoBlocking,
           0.636, 0.7476577540106956, 170, Vector(50, 28, 30, 19, 26, 17)),
  )

  goldens.foreach { g =>
    test(s"${g.name} reproduces its recorded ACC, FP, calls and levels") {
      val row = Harness.run(spark, g.profile, g.method, g.strategy)
      assert(math.abs(row.acc - g.acc) <= 1e-9, s"ACC ${row.acc} != ${g.acc}")
      assert(math.abs(row.fp - g.fp) <= 1e-9, s"FP ${row.fp} != ${g.fp}")
      assert(row.apiCalls == g.calls)
      assert(row.setsPerLevel == g.levels)
    }
  }
}

object GoldenSpec {
  private final case class Golden(name: String, profile: DatasetProfile,
                                  method: Harness.Method, strategy: Blocking.Strategy,
                                  acc: Double, fp: Double, calls: Long, levels: Vector[Int])
}
