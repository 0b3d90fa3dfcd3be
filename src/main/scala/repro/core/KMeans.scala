package repro.core

import repro.embed.Embed

/** Small local k-means + elbow, used by NRS (Algorithm 1) for its
  * preliminary diversity assessment of a block's remaining records.
  * Blocks are small (tens of records), so a driver-side implementation
  * inside the per-block `mapGroups` task is the right altitude.
  */
object KMeans {

  /** Lloyd's algorithm on L2-normalised vectors; deterministic in seed. */
  def cluster(recs: Vector[Record], k: Int, seed: Long, iters: Int = 12): Vector[Vector[Record]] = {
    require(k >= 1, s"k must be >= 1, got $k")
    if (recs.isEmpty) return Vector.empty
    val kk = math.min(k, recs.size)
    val rnd = new scala.util.Random(seed)
    // k-means++-lite seeding: first centroid random, rest farthest-point.
    var centroids = Vector(recs(rnd.nextInt(recs.size)).vec.clone())
    while (centroids.size < kk) {
      val far = recs.maxBy(r => centroids.map(c => 1.0 - Embed.cosine(r.vec, c)).min)
      centroids = centroids :+ far.vec.clone()
    }
    var assign = Array.fill(recs.size)(0)
    var it = 0
    var changed = true
    while (it < iters && changed) {
      changed = false
      var i = 0
      while (i < recs.size) {
        val best = centroids.indices.maxBy(j => Embed.cosine(recs(i).vec, centroids(j)))
        if (best != assign(i)) { assign(i) = best; changed = true }
        i += 1
      }
      centroids = centroids.indices.map { j =>
        val members = recs.indices.filter(assign(_) == j)
        if (members.isEmpty) centroids(j)
        else Embed.normalisedSum(members.map(recs(_).vec))
      }.toVector
      it += 1
    }
    recs.indices.groupBy(assign(_)).values
      .map(_.map(recs(_)).toVector).toVector
      .filter(_.nonEmpty)
      .sortBy(c => c.map(_.id).min)
  }

  /** Within-cluster cohesion (mean cosine of members to their centroid). */
  private def cohesion(clusters: Vector[Vector[Record]]): Double = {
    if (clusters.isEmpty) return 0.0
    val per = clusters.map { c =>
      val cen = Embed.normalisedSum(c.map(_.vec))
      c.map(r => Embed.cosine(r.vec, cen)).sum / c.size
    }
    per.sum / per.size
  }

  /** Elbow method: the clustering at the largest k <= maxK whose
    * cohesion gain over k-1 clears a knee threshold, or the whole set as
    * one cluster when no k > 1 does. Used as the "diversity" estimate.
    */
  def elbow(recs: Vector[Record], maxK: Int, seed: Long): Vector[Vector[Record]] = {
    var best = Vector(recs).filter(_.nonEmpty)
    if (recs.size <= 1) return best
    val cap = math.min(maxK, recs.size)
    var prev = cohesion(best)
    var k = 1
    while (k < cap) {
      k += 1
      val clusters = cluster(recs, k, seed)
      val coh = cohesion(clusters)
      if (coh - prev > 0.02) best = clusters
      prev = coh
    }
    best
  }
}
