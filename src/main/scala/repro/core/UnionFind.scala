package repro.core

import scala.collection.mutable

/** Union-find over ids with transitivity and anti-transitivity — the
  * closure substrate of every blocking strategy, of the pairwise/BQ/
  * CrowdER baselines' combining phase and of CMR's merge hierarchy.
  *
  * `union` asserts two ids are the same entity; `separate` asserts they
  * are different, which then holds between every pair drawn from their
  * two components, now and after later unions. Separations are kept per
  * current root and re-keyed from the losing root to the winning one on
  * `union`, so `separated` costs two `find`s and one set lookup. An id
  * first seen by `union` or `separate` joins as a singleton; `find` on an
  * unseen id returns the id itself.
  */
final class UnionFind(ids: Iterable[Long]) {
  private val parent = mutable.Map.empty[Long, Long]
  private val rank   = mutable.Map.empty[Long, Int]
  /** root -> roots of the components asserted different from it. */
  private val apart  = mutable.Map.empty[Long, mutable.Set[Long]]
  ids.foreach(add)

  private def add(id: Long): Unit =
    if (!parent.contains(id)) { parent(id) = id; rank(id) = 0 }

  def find(x: Long): Long = {
    if (!parent.contains(x)) return x
    var root = x
    while (parent(root) != root) root = parent(root)
    var cur = x
    while (parent(cur) != root) { val nxt = parent(cur); parent(cur) = root; cur = nxt }
    root
  }

  def union(a: Long, b: Long): Unit = {
    add(a); add(b)
    val ra = find(a); val rb = find(b)
    if (ra != rb) {
      if (rank(ra) < rank(rb)) { parent(ra) = rb; rekey(ra, rb) }
      else if (rank(ra) > rank(rb)) { parent(rb) = ra; rekey(rb, ra) }
      else { parent(rb) = ra; rank(ra) = rank(ra) + 1; rekey(rb, ra) }
    }
  }

  /** Move the separations of root `from` onto root `to`, its new root. */
  private def rekey(from: Long, to: Long): Unit =
    apart.remove(from).foreach { others =>
      val mine = apart.getOrElseUpdate(to, mutable.Set.empty)
      others.foreach { o =>
        if (o == from) mine += to
        else { val theirs = apart(o); theirs -= from; theirs += to; mine += o }
      }
    }

  def connected(a: Long, b: Long): Boolean = find(a) == find(b)

  /** Record that `a` and `b` are different entities. */
  def separate(a: Long, b: Long): Unit = {
    add(a); add(b)
    val ra = find(a); val rb = find(b)
    apart.getOrElseUpdate(ra, mutable.Set.empty) += rb
    apart.getOrElseUpdate(rb, mutable.Set.empty) += ra
  }

  /** Are the components of `a` and `b` asserted different entities? */
  def separated(a: Long, b: Long): Boolean =
    apart.get(find(a)).exists(_.contains(find(b)))

  /** Current partition as a set of clusters. */
  def partition: Vector[Set[Long]] =
    parent.keys.groupBy(find).values.map(_.toSet).toVector
}
