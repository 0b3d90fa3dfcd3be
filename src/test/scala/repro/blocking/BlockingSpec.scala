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
    import spark.implicits._
    val (bands, bits, seed) = (8, 8, 7L)
    val cands = Blocking.lshCandidates(spark, ds, bands, bits, seed).cache()
    val recs  = ds.collect()
    val byId  = recs.map(r => r.id -> r).toMap
    cands.collect().foreach { row =>
      val (a, b) = (row.getLong(0), row.getLong(1))
      assert(row.getDouble(2) == byId(a).cos(byId(b)), s"sim of ($a, $b)")
    }
    // DuckDB forms the pairs itself, self-joining the scalar signature
    // table, and counts each record's distinct candidates; Spark's rows
    // must hold each pair once to match.
    val planes = Blocking.hyperplanes(bands, bits, seed)
    val sigs = recs.toSeq.flatMap { r =>
      Blocking.signatures(planes, bits, r.vec).zipWithIndex.map { case (sig, band) => (band, sig, r.id) }
    }.toDF("band", "sig", "id")
    val agg = cands.groupBy($"id_a").agg(count(lit(1)).as("n_cand"))
      .select($"id_a".cast("string").as("id_a"), $"n_cand")
    repro.Oracle.assertEquivalent(
      agg,
      """SELECT a.id AS id_a, COUNT(DISTINCT b.id) AS n_cand
        |FROM sig a JOIN sig b
        |  ON a.band = b.band AND a.sig = b.sig AND CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)
        |GROUP BY a.id""".stripMargin,
      "sig" -> sigs)
    cands.unpersist()
  }

  test("LSH candidates are the bucket-sharing pairs at or above minSim, once each, bit-exact") {
    import spark.implicits._
    val vocab = Vector("canon", "eos", "5d", "nikon", "d800", "body", "kit", "lens")
    val textGen = Gen.frequency(
      1 -> Gen.oneOf("", "--", " | "), // no tokens
      6 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.oneOf(vocab))).map(_.mkString(" ")))
    // A small vocabulary repeats texts (duplicate vectors); some records
    // get the zero vector.
    val vecGen = Gen.frequency(1 -> Gen.const(None), 8 -> textGen.map(Some(_)))
    val caseGen = for {
      n      <- Gen.choose(0, 24)
      ids    <- Gen.pick(n, 0L to 200L)
      texts  <- Gen.listOfN(n, vecGen)
      bands  <- Gen.choose(1, 4)
      bits   <- Gen.choose(1, 4)
      seed   <- Gen.choose(0L, 1000L)
      recs    = ids.toVector.zip(texts).map { case (id, t) =>
                  Record(id, 0L, t.getOrElse(""), t.fold(new Array[Float](Embed.Dim))(Embed.embed)) }
      sims    = for (x <- recs; y <- recs if x.id < y.id) yield x.cos(y)
      minSim <- Gen.frequency(
                  1 -> Gen.const(Double.NegativeInfinity),
                  1 -> Gen.choose(-1.0, 1.0),
                  2 -> (if (sims.isEmpty) Gen.const(0.0) else Gen.oneOf(sims)))
    } yield (recs, bands, bits, seed, minSim)
    def exact(rows: Seq[(Long, Long, Double)]) =
      rows.map { case (a, b, sim) => (a, b, java.lang.Double.doubleToRawLongBits(sim)) }.sorted
    checkProp(Prop.forAll(caseGen) { case (recs, bands, bits, seed, minSim) =>
      val planes = Blocking.hyperplanes(bands, bits, seed)
      val sigOf  = recs.map(r => r.id -> Blocking.signatures(planes, bits, r.vec)).toMap
      val reference = for {
        x <- recs; y <- recs if x.id < y.id
        if sigOf(x.id).indices.exists(b => sigOf(x.id)(b) == sigOf(y.id)(b))
        if x.cos(y) >= minSim
      } yield (x.id, y.id, x.cos(y))
      val got = Blocking.lshCandidates(spark, spark.createDataset(recs), bands, bits, seed, minSim)
        .as[(Long, Long, Double)].collect().toSeq
      exact(got) == exact(reference)
    }, minTests = 60)
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
