package repro.core

/** Greedy Charikar-style peeling (Algorithm 1 lines 3–8): repeatedly remove
  * the minimum-priority node and return the intermediate graph H_i with the
  * highest density score φ.
  *
  * A node's priority is its marginal contribution to the weighted edge mass
  * f(S) = Σ_{(i,j)∈E(S)} w_j: for a user it is Σ_{j∈N(u)} w_j over still-live
  * merchants, for a merchant j it is d_S(j)·w_j. Priorities only decrease, so
  * an index-addressed binary min-heap with decrease-key gives the paper's
  * O(|E| log(|U|+|V|)) bound with no boxing on the hot path. The heap owns the
  * priorities and stores each one next to its slot, so a sift step compares
  * keys without first loading the node at the slot.
  */
object Peeling {

  /** One detected dense block: the surviving node ids and its φ score. */
  final case class Block(uIds: Array[Long], vIds: Array[Long], score: Double) {
    def nodeCount: Int = uIds.length + vIds.length
  }

  /** Array-backed binary min-heap over node indices `0 until capacity` with
    * decrease-key. It owns the keys and keeps them in heap order: `hk(i)` is
    * the key of `heap(i)`. `pos(node)` is the node's slot, or -1 once it is
    * deleted or if it was never inserted.
    */
  private[core] final class IndexMinHeap(capacity: Int) {
    private val heap = new Array[Int](capacity)
    private val hk = new Array[Double](capacity)
    private val pos = new Array[Int](capacity)
    private var sz = 0
    java.util.Arrays.fill(pos, -1)

    def size: Int = sz

    def insert(node: Int, key: Double): Unit = {
      heap(sz) = node
      hk(sz) = key
      pos(node) = sz
      sz += 1
      siftUp(sz - 1)
    }

    /** The minimum key; the heap must not be empty. */
    def minKey: Double = hk(0)

    /** Lower `node`'s key by `d` if `node` is in the heap. */
    def lower(node: Int, d: Double): Unit = {
      val i = pos(node)
      if (i >= 0) { hk(i) -= d; siftUp(i) }
    }

    /** Remove and return the minimum-key node. */
    def deleteMin(): Int = {
      val m = heap(0)
      sz -= 1
      if (sz > 0) {
        heap(0) = heap(sz); hk(0) = hk(sz)
        pos(heap(0)) = 0
        siftDown(0)
      }
      pos(m) = -1
      m
    }

    private def siftUp(i0: Int): Unit = {
      var i = i0
      val node = heap(i)
      val k = hk(i)
      while (i > 0 && hk((i - 1) >> 1) > k) {
        val p = (i - 1) >> 1
        heap(i) = heap(p); hk(i) = hk(p); pos(heap(i)) = i
        i = p
      }
      heap(i) = node; hk(i) = k; pos(node) = i
    }

    private def siftDown(i0: Int): Unit = {
      var i = i0
      val node = heap(i)
      val k = hk(i)
      var done = false
      while (!done) {
        var c = 2 * i + 1
        if (c >= sz) done = true
        else {
          if (c + 1 < sz && hk(c + 1) < hk(c)) c += 1
          if (hk(c) >= k) done = true
          else {
            heap(i) = heap(c); hk(i) = hk(c); pos(heap(i)) = i
            i = c
          }
        }
      }
      heap(i) = node; hk(i) = k; pos(node) = i
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

    var f = 0.0
    var j = 0
    while (j < nV) { f += vDeg(j) * weights(j); j += 1 }

    // Node code: user i -> i, merchant j -> nU + j. Live nodes enter the heap
    // in code order, users then merchants, as in a freshly built graph;
    // isolated ones never enter it.
    val heap = new IndexMinHeap(n)
    var i = 0
    while (i < nU) {
      if (uDeg(i) > 0) {
        var s = 0.0
        var a = uOff(i)
        val end = a + uDeg(i)
        while (a < end) { s += weights(uNbr(a)); a += 1 }
        heap.insert(i, s)
      }
      i += 1
    }
    j = 0
    while (j < nV) {
      if (vDeg(j) > 0) heap.insert(nU + j, vDeg(j) * weights(j))
      j += 1
    }
    val live = heap.size
    require(live > 0, "graph has no edge")

    val order = new Array[Int](live) // removal order, then the node left last
    var remaining = live
    var best = f / live
    var bestRemaining = live
    var t = 0
    while (remaining > 1) {
      f -= heap.minKey
      val node = heap.deleteMin()
      if (node < nU) {
        var a = uOff(node)
        val end = a + uDeg(node)
        while (a < end) { val vj = uNbr(a); heap.lower(nU + vj, weights(vj)); a += 1 }
      } else {
        val vj = node - nU
        val wj = weights(vj)
        var a = vOff(vj)
        val end = a + vDeg(vj)
        while (a < end) { heap.lower(vNbr(a), wj); a += 1 }
      }
      order(t) = node; t += 1; remaining -= 1
      val cur = f / remaining
      if (cur > best + 1e-15) { best = cur; bestRemaining = remaining }
    }
    order(t) = heap.deleteMin()

    // The best state is the last bestRemaining nodes of the removal order.
    val in = new Array[Boolean](n)
    var nBu = 0
    var r = live - bestRemaining
    while (r < live) {
      in(order(r)) = true
      if (order(r) < nU) nBu += 1
      r += 1
    }
    val us = new Array[Long](nBu)
    val vs = new Array[Long](bestRemaining - nBu)
    var k = 0
    i = 0
    while (i < nU) { if (in(i)) { us(k) = g.uIds(i); k += 1 }; i += 1 }
    // The score is the block's mass Σ d_S(j)·w_j summed afresh: after a
    // whole-graph peel the running f has drifted by up to 3e-8 relative
    // (FRAUDAR on jd3 at sf=10, `PhiExactSpec`).
    var mass = 0.0
    k = 0
    j = 0
    while (j < nV) {
      if (in(nU + j)) {
        vs(k) = g.vIds(j); k += 1
        var d = 0
        var a = vOff(j)
        val end = a + vDeg(j)
        while (a < end) { if (in(vNbr(a))) d += 1; a += 1 }
        mass += d * weights(j)
      }
      j += 1
    }
    Block(us, vs, mass / bestRemaining)
  }
}
