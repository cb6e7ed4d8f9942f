package repro.baselines

import scala.collection.mutable

import repro.core.LocalGraph

/** Driver-local truncated SVD of a sparse 0/1 bipartite adjacency matrix,
  * built from scratch: power iteration on AᵀA with Gram–Schmidt deflation.
  *
  * This is the shared substrate of the two spectral baselines (SPOKEN, FBOX).
  * The paper's datasets (and our 1/100-scale substitutes) are small enough
  * that one driver core handles them; tests validate singular values and
  * subspaces against Spark MLlib's RowMatrix.computeSVD.
  */
object SparseSvd {

  /** Truncated SVD: `u(k)` and `v(k)` are the k-th left/right singular
    * vectors (length nU / nV), `s(k)` the singular values, descending.
    */
  final case class Svd(u: Array[Array[Double]], s: Array[Double], v: Array[Array[Double]]) {
    def rank: Int = s.length
  }

  /** Power iterations per component, at most. */
  private val Iters = 80

  /** Compute the top-k SVD of g's numU × numV adjacency: row i is user
    * index i, column j merchant index j, with a 1 at each live edge.
    */
  def compute(g: LocalGraph, k: Int, seed: Long = 7L): Svd = {
    val nU = g.numU
    val nV = g.numV
    require(nU > 0 && nV > 0, "empty matrix")
    val kk = math.min(k, math.min(nU, nV))
    val rnd = new scala.util.Random(seed)

    /** out(i) = Σ x over node i's slice, for one side of g. */
    def mult(n: Int, off: Array[Int], deg: Array[Int], nbr: Array[Int], x: Array[Double]): Array[Double] = {
      val out = new Array[Double](n)
      var i = 0
      while (i < n) {
        var s = 0.0
        var a = off(i)
        val end = a + deg(i)
        while (a < end) { s += x(nbr(a)); a += 1 }
        out(i) = s
        i += 1
      }
      out
    }
    def multA(x: Array[Double]): Array[Double] = mult(nU, g.uOff, g.uDeg, g.uNbr, x)
    def multAt(y: Array[Double]): Array[Double] = mult(nV, g.vOff, g.vDeg, g.vNbr, y)
    def norm(x: Array[Double]): Double = math.sqrt(x.map(a => a * a).sum)
    def scaleInPlace(x: Array[Double], a: Double): Unit = {
      var i = 0; while (i < x.length) { x(i) *= a; i += 1 }
    }
    /** Remove projections of x onto each of `basis` (modifies x). */
    def deflate(x: Array[Double], basis: mutable.ArrayBuffer[Array[Double]]): Unit =
      basis.foreach { b =>
        var dot = 0.0
        var i = 0
        while (i < x.length) { dot += x(i) * b(i); i += 1 }
        i = 0
        while (i < x.length) { x(i) -= dot * b(i); i += 1 }
      }

    val vBasis = new mutable.ArrayBuffer[Array[Double]]
    val uOut = new mutable.ArrayBuffer[Array[Double]]
    val sOut = new mutable.ArrayBuffer[Double]

    var c = 0
    while (c < kk) {
      var v = Array.fill(nV)(rnd.nextGaussian())
      deflate(v, vBasis)
      var n0 = norm(v)
      if (n0 < 1e-12) { v = Array.fill(nV)(rnd.nextGaussian()); deflate(v, vBasis); n0 = norm(v) }
      scaleInPlace(v, 1.0 / n0)
      var it = 0
      var converged = false
      while (it < Iters && !converged) {
        val w = multAt(multA(v))
        deflate(w, vBasis)
        val nw = norm(w)
        if (nw < 1e-14) {
          converged = true // matrix rank exhausted in the deflated subspace
        } else {
          scaleInPlace(w, 1.0 / nw)
          var dot = 0.0
          var i = 0
          while (i < nV) { dot += w(i) * v(i); i += 1 }
          if (math.abs(math.abs(dot) - 1.0) < 1e-12) converged = true
          v = w
        }
        it += 1
      }
      val av = multA(v)
      val sigma = norm(av)
      val u = if (sigma > 1e-12) { scaleInPlace(av, 1.0 / sigma); av } else new Array[Double](nU)
      vBasis += v
      uOut += u
      sOut += sigma
      c += 1
    }
    Svd(uOut.toArray, sOut.toArray, vBasis.toArray)
  }
}
