package repro.core

import scala.collection.mutable

/** Compact in-memory bipartite graph, the one graph representation of the
  * driver-side algorithms: the FDET kernel (EnsemFDet per sample, FRAUDAR on
  * the whole graph) and the SVD behind SPOKEN and FBOX.
  *
  * Node ids are remapped to dense int indices: `uIds` and `vIds` hold the
  * sorted original user (PIN) and merchant ids. Each side is a flat CSR of
  * three int arrays, `off`, `deg` and `nbr`: node i's live neighbours are
  * `nbr(off(i) until off(i) + deg(i))`, in ascending index order, so
  * peeling is allocation-free.
  *
  * Between FDET rounds `removeBlockEdges` deletes a detected block's internal
  * edges in place: it compacts each block node's slice, keeping its order,
  * and lowers its `deg`. A node whose last edge goes keeps its index but
  * drops out of `numNodes`, so the graph reads like `fromEdges` of the edges
  * left.
  */
final class LocalGraph private (
    val uIds: Array[Long],
    val vIds: Array[Long],
    private[repro] val uOff: Array[Int],
    private[repro] val uDeg: Array[Int],
    private[repro] val uNbr: Array[Int],
    private[repro] val vOff: Array[Int],
    private[repro] val vDeg: Array[Int],
    private[repro] val vNbr: Array[Int]) {

  // `fromEdges` gives every node at least one edge.
  private var liveNodes: Int = uIds.length + vIds.length
  private var liveEdges: Long = vNbr.length

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
  def vDegrees: Array[Int] = vDeg.clone

  /** User degrees, aligned with `uIds`. */
  def uDegrees: Array[Int] = uDeg.clone

  /** Removes every edge with both ends in `b` ("remove edges in previously
    * detected subgraphs", Algorithm 1) and returns how many distinct edges
    * went. `b`'s ids may come in any order: each is looked up once and
    * flagged, and each block node's slice then keeps the neighbours that are
    * not flagged. Costs O(|U| + |V| + |b| log(|U| + |V|) + Σ block-node
    * degree); no other node changes.
    */
  private[core] def removeBlockEdges(b: Peeling.Block): Long = {
    val inU = new Array[Boolean](numU)
    val inV = new Array[Boolean](numV)
    val bu = mark(uIds, b.uIds, inU)
    val bv = mark(vIds, b.vIds, inV)
    var removed = 0L
    var k = 0
    while (k < bu.length) { removed += dropNeighbours(uOff, uDeg, uNbr, bu(k), inV); k += 1 }
    k = 0
    while (k < bv.length) { dropNeighbours(vOff, vDeg, vNbr, bv(k), inU); k += 1 }
    liveEdges -= removed
    removed
  }

  /** Drops from node i's slice the neighbours flagged in `drop`, keeping the
    * others' order, and returns how many went.
    */
  private def dropNeighbours(
      off: Array[Int], deg: Array[Int], nbr: Array[Int], i: Int, drop: Array[Boolean]): Int = {
    val start = off(i)
    val end = start + deg(i)
    var m = start
    var k = start
    while (k < end) {
      if (!drop(nbr(k))) { nbr(m) = nbr(k); m += 1 }
      k += 1
    }
    deg(i) = m - start
    if (m == start && end > start) liveNodes -= 1
    end - m
  }

  /** The indices in the sorted `ids` of the ids in `sub`, each also flagged
    * in `in`.
    */
  private def mark(ids: Array[Long], sub: Array[Long], in: Array[Boolean]): Array[Int] = {
    val idx = new Array[Int](sub.length)
    var k = 0
    while (k < sub.length) {
      val i = java.util.Arrays.binarySearch(ids, sub(k))
      require(i >= 0, s"node ${sub(k)} is not in the graph")
      idx(k) = i; in(i) = true; k += 1
    }
    idx
  }
}

object LocalGraph {

  /** Build from an edge list; duplicate (u, v) pairs are collapsed — the
    * 'who buy-from where' graph is simple (repeat purchases are one edge).
    */
  def fromEdges(edges: Array[(Long, Long)]): LocalGraph = {
    val us = new Array[Long](edges.length)
    val vs = new Array[Long](edges.length)
    var e = 0
    while (e < edges.length) { us(e) = edges(e)._1; vs(e) = edges(e)._2; e += 1 }
    fromColumns(us, vs)
  }

  /** Build from edge columns: edge e is (us(e), vs(e)). Duplicates are
    * collapsed, and the graph does not depend on the edges' order.
    */
  def fromColumns(us: Array[Long], vs: Array[Long]): LocalGraph = {
    require(us.length == vs.length, s"${us.length} users but ${vs.length} merchants")
    val (uIds, uIdx) = index(us)
    val (vIds, vIdx) = index(vs)
    val nU = uIds.length
    val nV = vIds.length

    // User side: one slice per user, sized by its edge count with repeats.
    val uDeg = new Array[Int](nU)
    var e = 0
    while (e < us.length) { uDeg(uIdx(us(e))) += 1; e += 1 }
    val uOff = offsets(uDeg)
    val uNbr = new Array[Int](us.length)
    e = 0
    while (e < us.length) {
      val ui = uIdx(us(e))
      uNbr(uOff(ui) + uDeg(ui)) = vIdx(vs(e))
      uDeg(ui) += 1
      e += 1
    }

    // Sort each slice and collapse repeats in place, lowering the degree.
    val vDeg = new Array[Int](nV)
    var nEdges = 0
    var u = 0
    while (u < nU) {
      val start = uOff(u)
      val end = start + uDeg(u)
      java.util.Arrays.sort(uNbr, start, end)
      var m = start
      var k = start
      while (k < end) {
        if (k == start || uNbr(k) != uNbr(k - 1)) { uNbr(m) = uNbr(k); vDeg(uNbr(k)) += 1; m += 1 }
        k += 1
      }
      uDeg(u) = m - start
      nEdges += m - start
      u += 1
    }

    // Merchant side, filled in ascending user order so each slice is sorted.
    val vOff = offsets(vDeg)
    val vNbr = new Array[Int](nEdges)
    u = 0
    while (u < nU) {
      var k = uOff(u)
      val end = k + uDeg(u)
      while (k < end) {
        val vj = uNbr(k)
        vNbr(vOff(vj) + vDeg(vj)) = u
        vDeg(vj) += 1
        k += 1
      }
      u += 1
    }
    new LocalGraph(uIds, vIds, uOff, uDeg, uNbr, vOff, vDeg, vNbr)
  }

  /** Slice starts for the slice sizes in `deg`. Zeroes `deg`, which then
    * serves as each slice's fill cursor and ends as its degree.
    */
  private def offsets(deg: Array[Int]): Array[Int] = {
    val off = new Array[Int](deg.length)
    var i = 1
    while (i < deg.length) { off(i) = off(i - 1) + deg(i - 1); i += 1 }
    java.util.Arrays.fill(deg, 0)
    off
  }

  /** One side's sorted distinct ids, and each id's index among them. */
  private def index(col: Array[Long]): (Array[Long], mutable.LongMap[Int]) = {
    val idx = new mutable.LongMap[Int](col.length * 2)
    var i = 0
    while (i < col.length) { idx.update(col(i), 0); i += 1 }
    val ids = idx.keysIterator.toArray
    java.util.Arrays.sort(ids)
    i = 0
    while (i < ids.length) { idx.update(ids(i), i); i += 1 }
    (ids, idx)
  }
}
