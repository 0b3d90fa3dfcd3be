package repro.blocking

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.core.{Record, UnionFind}
import repro.data.{DatasetProfile, ERGen}
import repro.embed.Embed

class BlockingSpec extends SparkSpec with PropSupport {

  private lazy val mini = DatasetProfile.mini(DatasetProfile.citeseer, 250)
  private lazy val ds   = {
    import spark.implicits._
    ERGen.records(spark, mini).cache()
  }
  private lazy val local = ERGen.recordsLocal(mini)

  test("Spark and local generators agree record-for-record") {
    val fromSpark = ds.collect().sortBy(_.id).toVector
    assert(fromSpark.map(_.text) == local.map(_.text))
    assert(fromSpark.map(_.entityId) == local.map(_.entityId))
  }

  test("LSH candidates have high recall on same-entity pairs") {
    val cands = Blocking.lshCandidates(spark, ds).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val entOf = local.map(r => r.id -> r.entityId).toMap
    val truePairs = for {
      i <- local.indices; j <- i + 1 until local.size
      if local(i).entityId == local(j).entityId
    } yield (local(i).id, local(j).id)
    val found = truePairs.count { case (a, b) =>
      cands.contains((a, b)) || cands.contains((b, a)) }
    assert(found.toDouble / truePairs.size > 0.7,
      s"LSH recall ${found.toDouble / truePairs.size}")
    assert(entOf.nonEmpty)
  }

  test("LSH candidate sims equal the direct cosine (DuckDB-checked count)") {
    val cands = Blocking.lshCandidates(spark, ds)
    val byId  = local.map(r => r.id -> r).toMap
    cands.limit(50).collect().foreach { row =>
      val expect = byId(row.getLong(0)).cos(byId(row.getLong(1)))
      assert(math.abs(row.getDouble(2) - expect) < 1e-6)
    }
    // Oracle-check the aggregation path: candidate count per left record.
    import spark.implicits._
    val agg = cands.groupBy($"id_a").agg(count(lit(1)).as("n_cand"))
      .select($"id_a".cast("string").as("id_a"), $"n_cand")
    repro.Oracle.assertEquivalent(
      agg,
      "SELECT id_a, COUNT(*) AS n_cand FROM cand GROUP BY id_a",
      "cand" -> cands.select($"id_a".cast("string").as("id_a"),
                             $"id_b".cast("string").as("id_b")))
  }

  test("filter candidates find every Jaccard>=bt pair (prefix completeness)") {
    val bt = 0.5
    val cands = Blocking.filterCandidates(spark, ds, bt)
      .where(col("sim") >= bt).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    // Brute force reference on a subsample.
    val sub = local.take(80)
    for (i <- sub.indices; j <- i + 1 until sub.size) {
      if (Embed.jaccard(sub(i).text, sub(j).text) >= bt) {
        val p = (sub(i).id, sub(j).id)
        assert(cands.contains(p), s"missing pair $p")
      }
    }
  }

  test("canopy respects bs >= ms and produces scored candidates") {
    intercept[IllegalArgumentException] {
      Blocking.canopyCandidates(spark, ds, bs = 0.3, ms = 0.5)
    }
    val c = Blocking.canopyCandidates(spark, ds, bs = 0.6, ms = 0.3)
    assert(c.columns.toSet == Set("id_a", "id_b", "sim", "cheap"))
    assert(c.count() > 0)
  }

  /** The reference blocking every id is seeded into: union-find over
    * `allIds`, capped unions in descending similarity, smallest member
    * id as block id.
    */
  private def referenceComponents(allIds: Seq[Long], edges: Seq[(Long, Long, Double)],
                                  cap: Int): Map[Long, Long] = {
    val uf   = new UnionFind(allIds)
    val size = scala.collection.mutable.Map.empty[Long, Int]
    allIds.foreach(id => size(id) = 1)
    edges.sortBy { case (a, b, sim) => (-sim, a, b) }.foreach { case (a, b, _) =>
      val ra = uf.find(a); val rb = uf.find(b)
      if (ra != rb && size(ra) + size(rb) <= cap) {
        uf.union(a, b)
        val r = uf.find(a)
        size(r) = size(ra) + size(rb)
      }
    }
    // Canonical block id: smallest record id of the component.
    val rootMin = allIds.groupBy(uf.find).map { case (r, ids) => r -> ids.min }
    allIds.map(id => id -> rootMin(uf.find(id))).toMap
  }

  private def uncapped(edges: Seq[(Long, Long)]): Map[Long, Long] =
    Blocking.componentsCapped(edges.map { case (a, b) => (a, b, 1.0) }, Int.MaxValue)

  test("components forms connected components with singleton fallback") {
    val m = uncapped(Seq((1L, 2L), (2L, 3L)))
    def comp(id: Long) = m.getOrElse(id, id)
    assert(comp(1L) == comp(2L) && comp(2L) == comp(3L))
    assert(comp(4L) != comp(1L) && comp(4L) != comp(5L))
  }
  test("components uses the smallest member id as block id") {
    val m = uncapped(Seq((7L, 9L)))
    def comp(id: Long) = m.getOrElse(id, id)
    assert(comp(7L) == 7L && comp(9L) == 7L && comp(3L) == 3L)
  }

  test("componentsCapped over edge ids, own id otherwise, equals the all-ids reference") {
    // Few distinct similarities so ties are common; ids beyond the edge
    // range stay isolated.
    val edgeGen = for {
      a   <- Gen.choose(0L, 30L)
      b   <- Gen.choose(0L, 30L)
      sim <- Gen.oneOf(0.5, 0.7, 0.9)
    } yield (a, b, sim)
    val caseGen = for {
      edges    <- Gen.listOf(edgeGen)
      cap      <- Gen.choose(1, 12)
      isolated <- Gen.listOf(Gen.choose(31L, 40L))
    } yield (edges, cap, isolated)
    checkProp(Prop.forAll(caseGen) { case (edges, cap, isolated) =>
      val allIds = (edges.flatMap { case (a, b, _) => Seq(a, b) } ++ isolated).distinct
      val m      = Blocking.componentsCapped(edges, cap)
      referenceComponents(allIds, edges, cap) == allIds.map(id => id -> m.getOrElse(id, id)).toMap
    }, minTests = 300)
  }

  private lazy val blockFns = Seq(Blocking.LSH, Blocking.Filter, Blocking.Canopy, Blocking.NoBlocking)
    .map(strategy => strategy -> Blocking.block(spark, ds, strategy, bt = 0.5))

  test("block covers every record exactly once for each strategy") {
    import spark.implicits._
    for ((strategy, blockOf) <- blockFns) {
      // Applied inside Spark tasks, as the block grouping applies it.
      val assigned = ds.map(r => (r.id, blockOf(r.id))).collect()
      assert(assigned.length == mini.numRecords, strategy.name)
      assert(assigned.map(_._1).distinct.length == mini.numRecords, strategy.name)
    }
  }
  test("block ids are smallest member ids and blocks stay within MaxBlockSize") {
    for ((strategy, blockOf) <- blockFns if strategy != Blocking.NoBlocking) {
      local.map(_.id).groupBy(blockOf).foreach { case (bid, members) =>
        assert(bid == members.min, s"${strategy.name}: block $bid is not its smallest member id")
        assert(members.size <= Blocking.MaxBlockSize, s"${strategy.name}: block $bid too large")
      }
    }
  }
  test("NoBlocking puts everything in one block") {
    val blockOf = Blocking.block(spark, ds, Blocking.NoBlocking, 0.5)
    assert(local.map(r => blockOf(r.id)).distinct == Vector(0L))
  }

  test("tuneThreshold returns a threshold in (0,1) maximising pair F1") {
    val t = Blocking.tuneThreshold(local.take(120), (a, b) => a.cos(b))
    assert(t >= 0.05 && t <= 0.95)
  }
  test("tuneThreshold splits clearly separated similarity distributions") {
    // Synthetic: same-entity pairs sim ~0.9, different ~0.1.
    val recs = (0 until 40).map { i =>
      val ent = i / 2
      val txt = if (i % 2 == 0) s"entity $ent common words here"
                else s"entity $ent common words there"
      Record(i.toLong, ent.toLong, txt, Embed.embed(txt))
    }.toVector
    val t = Blocking.tuneThreshold(recs, (a, b) => a.cos(b))
    val same = recs(0).cos(recs(1)); val diff = recs(0).cos(recs(2))
    assert(t <= same && t > math.min(0.05, diff - 1))
  }
}
