package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.data.{DatasetProfile, ERGen}
import repro.embed.Embed

class KMeansSpec extends AnyFunSuite with PropSupport {

  private val recs = ERGen.recordsLocal(DatasetProfile.mini(DatasetProfile.citeseer, 200))

  /** Reference elbow: the k it picks, found by re-clustering at every k. */
  private def referenceK(recs: Vector[Record], maxK: Int, seed: Long): Int = {
    def cohesion(clusters: Vector[Vector[Record]]): Double = {
      val per = clusters.map { c =>
        val cen = Embed.normalisedSum(c.map(_.vec))
        c.map(r => Embed.cosine(r.vec, cen)).sum / c.size
      }
      per.sum / per.size
    }
    if (recs.size <= 1) return math.max(1, recs.size)
    val cap = math.min(maxK, recs.size)
    var prev = cohesion(Vector(recs))
    var k = 1
    var best = 1
    while (k < cap) {
      k += 1
      val coh = cohesion(KMeans.cluster(recs, k, seed))
      if (coh - prev > 0.02) best = k
      prev = coh
    }
    best
  }

  test("elbow returns the clustering at the reference elbow's k") {
    // Mixed subsets, and subsets of one entity's records, where no k > 1
    // clears the knee.
    val mixed  = Gen.choose(1, 24).flatMap(n => Gen.pick(n, recs)).map(_.toVector.sortBy(_.id))
    val single = Gen.oneOf(recs.groupBy(_.entityId).values.filter(_.size >= 2).toSeq)
    var kOne = 0
    checkProp(Prop.forAll(Gen.frequency(3 -> mixed, 1 -> single), Gen.choose(1, 8),
                          Gen.choose(0L, 1000L)) { (sub, maxK, seed) =>
      val k = referenceK(sub, maxK, seed)
      if (k == 1) kOne += 1
      KMeans.elbow(sub, maxK, seed) == KMeans.cluster(sub, k, seed)
    }, minTests = 200)
    assert(kOne > 0, "no generated subset made k = 1 win")
  }

  test("elbow of an empty or singleton set is the set itself") {
    assert(KMeans.elbow(Vector.empty, 8, 1L).isEmpty)
    assert(KMeans.elbow(recs.take(1), 8, 1L) == Vector(recs.take(1)))
  }
}
