package repro.core

import scala.collection.mutable

/** Reference for `LocalGraphSpec`: `LocalGraph` as it was before its flat
  * CSR layout, with one `Array[Int]` adjacency per node. `removeBlockEdges`
  * filters a node's array and copies the survivors into a shorter one.
  * Nothing but the oracle test uses it.
  *
  * @param uIds original user (PIN) ids, sorted; index i in [0, numU)
  * @param vIds original merchant ids, sorted; index j in [0, numV)
  * @param uAdj for each user index, the merchant indices it buys from (sorted)
  * @param vAdj for each merchant index, the user indices buying from it (sorted)
  */
final class NestedLocalGraph private[core] (
    val uIds: Array[Long],
    val vIds: Array[Long],
    val uAdj: Array[Array[Int]],
    val vAdj: Array[Array[Int]]) {

  // `fromEdges` gives every node at least one edge.
  private var liveNodes: Int = uIds.length + vIds.length
  private var liveEdges: Long = {
    var s = 0L; var i = 0
    while (i < uAdj.length) { s += uAdj(i).length; i += 1 }
    s
  }

  /** Number of user indices, including users whose edges were all removed. */
  def numU: Int = uIds.length

  /** Number of merchant indices, including merchants whose edges were all removed. */
  def numV: Int = vIds.length

  /** Nodes with at least one edge: |U| + |V|, the denominator of the density
    * score. Equals numU + numV until `removeBlockEdges` isolates a node.
    */
  def numNodes: Int = liveNodes

  /** Number of (distinct) edges. */
  def numEdges: Long = liveEdges

  /** Merchant degrees d_j, aligned with `vIds`. */
  def vDegrees: Array[Int] = vAdj.map(_.length)

  /** User degrees, aligned with `uIds`. */
  def uDegrees: Array[Int] = uAdj.map(_.length)

  /** Removes every edge with both ends in `b` ("remove edges in previously
    * detected subgraphs", Algorithm 1) and returns how many distinct edges
    * went. `b`'s ids must be ascending, as `Peeling` returns them. Costs
    * O(Σ block-node degree · log |block|); no other node changes.
    */
  private[core] def removeBlockEdges(b: Peeling.Block): Long = {
    val bu = indicesOf(uIds, b.uIds)
    val bv = indicesOf(vIds, b.vIds)
    var removed = 0L
    var k = 0
    while (k < bu.length) { removed += dropNeighbours(uAdj, bu(k), bv); k += 1 }
    k = 0
    while (k < bv.length) { dropNeighbours(vAdj, bv(k), bu); k += 1 }
    liveEdges -= removed
    removed
  }

  /** Drops from adj(i) the neighbours listed in the sorted `drop`, keeping the
    * others' order, and returns how many went.
    */
  private def dropNeighbours(adj: Array[Array[Int]], i: Int, drop: Array[Int]): Int = {
    val a = adj(i)
    var m = 0
    var k = 0
    while (k < a.length) {
      if (java.util.Arrays.binarySearch(drop, a(k)) < 0) { a(m) = a(k); m += 1 }
      k += 1
    }
    if (m < a.length) {
      adj(i) = java.util.Arrays.copyOf(a, m)
      if (m == 0) liveNodes -= 1
    }
    a.length - m
  }

  private def indicesOf(ids: Array[Long], sub: Array[Long]): Array[Int] =
    sub.map { id =>
      val i = java.util.Arrays.binarySearch(ids, id)
      require(i >= 0, s"node $id is not in the graph")
      i
    }
}

object NestedLocalGraph {

  /** Build from an edge list; duplicate (u, v) pairs are collapsed — the
    * 'who buy-from where' graph is simple (repeat purchases are one edge).
    */
  def fromEdges(edges: Array[(Long, Long)]): NestedLocalGraph = {
    val uIds = sortedDistinctIds(edges, first = true)
    val vIds = sortedDistinctIds(edges, first = false)
    val uIdx = indexOf(uIds)
    val vIdx = indexOf(vIds)

    // Bucket merchant indices per user (duplicates included), then sort and
    // collapse each bucket.
    val uCnt = new Array[Int](uIds.length)
    var e = 0
    while (e < edges.length) { uCnt(uIdx(edges(e)._1)) += 1; e += 1 }
    val buckets = new Array[Array[Int]](uIds.length)
    var u = 0
    while (u < uIds.length) { buckets(u) = new Array[Int](uCnt(u)); u += 1 }
    val fill = new Array[Int](uIds.length)
    e = 0
    while (e < edges.length) {
      val ui = uIdx(edges(e)._1)
      buckets(ui)(fill(ui)) = vIdx(edges(e)._2)
      fill(ui) += 1
      e += 1
    }

    val vCnt = new Array[Int](vIds.length)
    val uAdj = new Array[Array[Int]](uIds.length)
    u = 0
    while (u < uIds.length) {
      val a = buckets(u)
      java.util.Arrays.sort(a)
      var m = 0
      var k = 0
      while (k < a.length) {
        if (k == 0 || a(k) != a(k - 1)) { a(m) = a(k); m += 1 }
        k += 1
      }
      val out = java.util.Arrays.copyOf(a, m)
      uAdj(u) = out
      k = 0
      while (k < m) { vCnt(out(k)) += 1; k += 1 }
      u += 1
    }

    val vAdj = new Array[Array[Int]](vIds.length)
    var v = 0
    while (v < vIds.length) { vAdj(v) = new Array[Int](vCnt(v)); v += 1 }
    val vFill = new Array[Int](vIds.length)
    u = 0
    while (u < uIds.length) {
      val a = uAdj(u)
      var k = 0
      while (k < a.length) {
        val vj = a(k)
        vAdj(vj)(vFill(vj)) = u
        vFill(vj) += 1
        k += 1
      }
      u += 1
    }
    new NestedLocalGraph(uIds, vIds, uAdj, vAdj)
  }

  private def sortedDistinctIds(edges: Array[(Long, Long)], first: Boolean): Array[Long] = {
    val seen = new mutable.LongMap[Unit](edges.length * 2)
    var i = 0
    while (i < edges.length) {
      seen.update(if (first) edges(i)._1 else edges(i)._2, ())
      i += 1
    }
    val out = seen.keysIterator.toArray
    java.util.Arrays.sort(out)
    out
  }

  private def indexOf(ids: Array[Long]): mutable.LongMap[Int] = {
    val m = new mutable.LongMap[Int](ids.length * 2)
    var i = 0
    while (i < ids.length) { m.update(ids(i), i); i += 1 }
    m
  }
}
