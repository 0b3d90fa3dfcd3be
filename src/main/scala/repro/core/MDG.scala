package repro.core

/** Algorithm 2 — Misclustering Detection Guardrail, plus the record-set
  * regeneration strategy of §5.2.
  *
  * A record is *misclustered* when its intra-cluster similarity (min
  * cosine to its own cluster) is lower than its inter-cluster
  * similarity (max cosine to any other cluster). If any record is
  * misclustered the LLM's answer is rejected; regeneration then
  * relocates each misclustered record immediately after its most
  * similar other cluster and re-queries with the more sequential order.
  */
object MDG {

  /** (intra, inter) similarities of record `r` under clustering `c`. */
  def similarities(c: Clustering, r: Record): (Double, Double) = {
    val own    = c.clusters.find(_.exists(_.id == r.id))
      .getOrElse(throw new IllegalArgumentException(s"record ${r.id} not in clustering"))
    val others = c.clusters.filterNot(_.exists(_.id == r.id))
    val intra  = own.filter(_.id != r.id) match {
      case same if same.nonEmpty => same.map(r.cos).min
      case _                     => 1.0 // singleton: vacuously coherent
    }
    val inter = others.flatten match {
      case os if os.nonEmpty => os.map(r.cos).max
      case _                 => -1.0
    }
    (intra, inter)
  }

  /** Margin on the relative test: borderline placements (intra within
    * the margin of inter) are trusted — on dirty data the two similarity
    * distributions overlap, and flagging every borderline case would
    * reject most correct answers.
    */
  val RelativeMargin = 0.08

  /** All records whose guardrail test fails: intra-cluster similarity
    * below inter-cluster similarity, or below a coherence floor. The
    * floor (the 5th percentile of same-entity similarities on the
    * validation sample, `LLMCER.tunedFloor`) is what catches the
    * degenerate "everything is one entity" answer, where no other
    * cluster exists to give an inter-cluster signal.
    */
  def misclustered(c: Clustering, floor: Double = 0.0): Vector[Record] =
    c.records.filter { r =>
      val (intra, inter) = similarities(c, r)
      if (inter >= 0) intra + RelativeMargin < inter // rival clusters: relative test
      else intra < floor // lone cluster: absolute coherence test
    }

  /** Members of multi-record clusters that are incoherent in absolute
    * terms (intra below the floor) — the residue of merge hallucinations
    * that survives all regeneration retries.
    */
  def floorIncoherent(c: Clustering, floor: Double): Vector[Record] =
    c.clusters.filter(_.size >= 2).flatten.filter { r =>
      val (intra, _) = similarities(c, r)
      intra < floor
    }

  /** Algorithm 2: is the in-context clustering result acceptable? */
  def acceptable(c: Clustering, floor: Double = 0.0): Boolean =
    misclustered(c, floor).isEmpty

  /** Record set regeneration: move each misclustered record right after
    * the cluster with its highest inter-cluster similarity, leaving all
    * other records in place (O(Ss) per record).
    */
  def regenerate(c: Clustering, floor: Double = 0.0): Vector[Record] = {
    if (c.clusters.size <= 1)
      // Lone (rejected) cluster: no relocation target — retry with a
      // fresh similarity-chain ordering instead.
      return NRS.orderSequentially(c.records)
    val bad = misclustered(c, floor).map(_.id).toSet
    if (bad.isEmpty) return c.records
    // Relocation target per misclustered record: its most similar other cluster.
    val targetOf = c.records.filter(r => bad(r.id)).map { r =>
      val others = c.clusters.zipWithIndex.filterNot(_._1.exists(_.id == r.id))
      val tgt    = others.maxBy { case (cl, _) => cl.map(r.cos).max }._2
      r.id -> tgt
    }.toMap
    val out = Vector.newBuilder[Record]
    c.clusters.zipWithIndex.foreach { case (cl, ci) =>
      val keep = cl.filterNot(r => bad(r.id))
      keep.foreach(out += _)
      // Append the relocated records targeted at this cluster, the most
      // similar first so each sits right next to its likely entity.
      c.records.filter(r => bad(r.id) && targetOf(r.id) == ci)
        .sortBy(r => -(cl.map(r.cos).maxOption.getOrElse(0.0)))
        .foreach(out += _)
    }
    out.result()
  }
}
