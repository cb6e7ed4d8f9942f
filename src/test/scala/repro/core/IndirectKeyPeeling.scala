package repro.core

/** The peel as it was before the heap kept its keys in heap order: the heap
  * reads every key through `key(heap(i))`, and the peel keeps its own `prio`
  * and `removed` arrays. Kept verbatim as the oracle `PeelingSpec` compares
  * `Peeling.densestBlock` with, block ids and score bits.
  */
object IndirectKeyPeeling {
  import Peeling.Block

  /** Array-backed binary min-heap over node indices with decrease-key. It
    * orders nodes by the caller's `key` array, which the caller may only
    * lower for a node in the heap, calling `decrease` right after.
    */
  private[core] final class IndexMinHeap(key: Array[Double]) {
    private val heap = new Array[Int](key.length)
    private val pos = new Array[Int](key.length)
    private var sz = 0

    def size: Int = sz

    def insert(node: Int): Unit = {
      heap(sz) = node
      pos(node) = sz
      sz += 1
      siftUp(sz - 1)
    }

    /** Restore heap order after `key(node)` was lowered. */
    def decrease(node: Int): Unit = siftUp(pos(node))

    /** Remove and return the minimum-key node. */
    def deleteMin(): Int = {
      val m = heap(0)
      sz -= 1
      if (sz > 0) {
        heap(0) = heap(sz)
        pos(heap(0)) = 0
        siftDown(0)
      }
      pos(m) = -1
      m
    }

    private def siftUp(i0: Int): Unit = {
      var i = i0
      val node = heap(i)
      val k = key(node)
      while (i > 0 && key(heap((i - 1) >> 1)) > k) {
        val p = (i - 1) >> 1
        heap(i) = heap(p); pos(heap(i)) = i
        i = p
      }
      heap(i) = node; pos(node) = i
    }

    private def siftDown(i0: Int): Unit = {
      var i = i0
      val node = heap(i)
      val k = key(node)
      var done = false
      while (!done) {
        var c = 2 * i + 1
        if (c >= sz) done = true
        else {
          if (c + 1 < sz && key(heap(c + 1)) < key(heap(c))) c += 1
          if (key(heap(c)) >= k) done = true
          else {
            heap(i) = heap(c); pos(heap(i)) = i
            i = c
          }
        }
      }
      heap(i) = node; pos(node) = i
    }
  }

  /** Peel `g` under fixed merchant weights and return the densest prefix.
    * Nodes with no edge (isolated by `LocalGraph.removeBlockEdges`) are left
    * out of the heap and of φ's denominator, so the result equals peeling
    * `LocalGraph.fromEdges` of the remaining edges.
    */
  def densestBlock(g: LocalGraph, weights: Array[Double]): Block = {
    val nU = g.numU; val nV = g.numV; val n = nU + nV
    val uOff = g.uOff; val uDeg = g.uDeg; val uNbr = g.uNbr
    val vOff = g.vOff; val vDeg = g.vDeg; val vNbr = g.vNbr

    // node code: user i -> i, merchant j -> nU + j
    val prio = new Array[Double](n)
    var f = 0.0
    var j = 0
    while (j < nV) {
      val w = vDeg(j) * weights(j)
      prio(nU + j) = w; f += w; j += 1
    }
    var i = 0
    while (i < nU) {
      var s = 0.0
      var a = uOff(i)
      val end = a + uDeg(i)
      while (a < end) { s += weights(uNbr(a)); a += 1 }
      prio(i) = s; i += 1
    }

    // Live nodes enter the heap in index order, as in a freshly built graph;
    // isolated ones count as removed from the start.
    val removed = new Array[Boolean](n)
    val heap = new IndexMinHeap(prio)
    var k = 0
    while (k < n) {
      val deg = if (k < nU) uDeg(k) else vDeg(k - nU)
      if (deg > 0) heap.insert(k) else removed(k) = true
      k += 1
    }
    val live = heap.size
    require(live > 0, "graph has no edge")

    val order = new Array[Int](live) // removal order
    var remaining = live
    var best = f / live
    var bestRemaining = live
    var t = 0
    while (remaining > 1) {
      val node = heap.deleteMin()
      removed(node) = true
      f -= prio(node)
      if (node < nU) {
        var a = uOff(node)
        val end = a + uDeg(node)
        while (a < end) {
          val vj = uNbr(a)
          if (!removed(nU + vj)) {
            prio(nU + vj) -= weights(vj)
            heap.decrease(nU + vj)
          }
          a += 1
        }
      } else {
        val vj = node - nU
        val wj = weights(vj)
        var a = vOff(vj)
        val end = a + vDeg(vj)
        while (a < end) {
          val ui = vNbr(a)
          if (!removed(ui)) {
            prio(ui) -= wj
            heap.decrease(ui)
          }
          a += 1
        }
      }
      order(t) = node; t += 1; remaining -= 1
      val cur = f / remaining
      if (cur > best + 1e-15) { best = cur; bestRemaining = remaining }
    }

    // Reconstruct the best state: only the first (live - bestRemaining)
    // removals stay removed, together with the isolated nodes.
    var r = live - bestRemaining
    while (r < t) { removed(order(r)) = false; r += 1 }
    val us = Array.newBuilder[Long]
    i = 0
    while (i < nU) { if (!removed(i)) us += g.uIds(i); i += 1 }
    val vs = Array.newBuilder[Long]
    // The score is the block's mass Σ d_S(j)·w_j summed afresh: after a
    // whole-graph peel the running f has drifted by up to 3e-8 relative
    // (FRAUDAR on jd3 at sf=10, `PhiExactSpec`).
    var mass = 0.0
    j = 0
    while (j < nV) {
      if (!removed(nU + j)) {
        vs += g.vIds(j)
        var d = 0
        var a = vOff(j)
        val end = a + vDeg(j)
        while (a < end) { if (!removed(vNbr(a))) d += 1; a += 1 }
        mass += d * weights(j)
      }
      j += 1
    }
    Block(us.result(), vs.result(), mass / bestRemaining)
  }
}
