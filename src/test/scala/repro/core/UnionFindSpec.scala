package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class UnionFindSpec extends AnyFunSuite with PropSupport {

  test("fresh elements are their own components") {
    val uf = new UnionFind(Seq(1L, 2L, 3L))
    assert(uf.find(1L) == 1L)
    assert(!uf.connected(1L, 2L))
    assert(uf.partition.size == 3)
  }

  test("union connects transitively") {
    val uf = new UnionFind(1L to 5L)
    uf.union(1, 2); uf.union(2, 3)
    assert(uf.connected(1, 3))
    assert(!uf.connected(1, 4))
    assert(uf.partition.map(_.size).sorted == Vector(1, 1, 3))
  }

  test("union is idempotent") {
    val uf = new UnionFind(Seq(1L, 2L))
    uf.union(1, 2); uf.union(1, 2); uf.union(2, 1)
    assert(uf.partition == Vector(Set(1L, 2L)))
  }

  test("partition covers exactly the initial ids") {
    val uf = new UnionFind(1L to 10L)
    uf.union(1, 5); uf.union(7, 9)
    assert(uf.partition.flatten.toSet == (1L to 10L).toSet)
  }

  test("chain of unions yields one component") {
    val uf = new UnionFind(1L to 100L)
    (1L until 100L).foreach(i => uf.union(i, i + 1))
    assert(uf.partition.size == 1)
  }

  test("property: components equal reference partition of random union sequences") {
    val gen = for {
      n     <- Gen.choose(2, 30)
      edges <- Gen.listOf(Gen.zip(Gen.choose(1, n), Gen.choose(1, n)))
    } yield (n, edges)
    checkProp(Prop.forAll(gen) { case (n, edges) =>
      val uf = new UnionFind((1 to n).map(_.toLong))
      edges.foreach { case (a, b) => uf.union(a.toLong, b.toLong) }
      // Reference: repeated closure over edge list.
      var part = (1 to n).map(i => Set(i.toLong)).toVector
      edges.foreach { case (a, b) =>
        val ca = part.find(_.contains(a.toLong)).get
        val cb = part.find(_.contains(b.toLong)).get
        if (ca != cb) part = part.filterNot(c => c == ca || c == cb) :+ (ca ++ cb)
      }
      uf.partition.map(_.toSeq.sorted).sortBy(_.head) ==
        part.map(_.toSeq.sorted).sortBy(_.head)
    })
  }

  test("separation holds between whole components, before and after unions") {
    val uf = new UnionFind(1L to 6L)
    uf.union(1, 2); uf.union(3, 4)
    uf.separate(2, 3)
    assert(uf.separated(1, 4) && uf.separated(4, 1))
    assert(!uf.separated(1, 5) && !uf.separated(5, 6))
    uf.union(4, 5) // 5 joins a separated component and inherits it
    assert(uf.separated(5, 1))
    uf.union(6, 1)
    assert(uf.separated(6, 5))
  }

  test("ids first seen by union or separate join as singletons") {
    val uf = new UnionFind(Nil)
    assert(uf.find(7L) == 7L && !uf.separated(7L, 8L))
    uf.separate(1, 2)
    uf.union(10, 1) // 10 is a merge descendant of 1
    assert(uf.separated(10, 2))
    assert(uf.partition.flatten.toSet == Set(1L, 2L, 10L))
  }

  test("property: connected and separated agree with lineage sets and a pair scan") {
    // Ops over ids 1..n+8; ids above n are unseen until an op names them.
    val gen = for {
      n   <- Gen.choose(2, 12)
      ops <- Gen.listOf(for {
        sep <- Gen.oneOf(true, false)
        a   <- Gen.choose(1, n + 8)
        b   <- Gen.choose(1, n)
      } yield (sep, a.toLong, b.toLong))
    } yield (n, ops)
    checkProp(Prop.forAll(gen) { case (n, ops) =>
      val uf = new UnionFind((1 to n).map(_.toLong))
      // Reference: each id's lineage set, and every separation as a pair.
      var lineage = (1 to n).map(i => i.toLong -> Set(i.toLong)).toMap
      var pairs   = Vector.empty[(Long, Long)]
      def lin(x: Long) = lineage.getOrElse(x, Set(x))
      def refSeparated(a: Long, b: Long) = pairs.exists { case (x, y) =>
        (lin(a)(x) && lin(b)(y)) || (lin(a)(y) && lin(b)(x))
      }
      ops.foreach { case (sep, a, b) =>
        if (sep) { uf.separate(a, b); pairs :+= ((a, b)) }
        else {
          uf.union(a, b)
          val merged = lin(a) ++ lin(b)
          lineage ++= merged.map(_ -> merged)
        }
      }
      val ids = 1L to n + 8L
      ids.forall(x => ids.forall(y =>
        uf.connected(x, y) == lin(x)(y) && uf.separated(x, y) == refSeparated(x, y)))
    })
  }
}
