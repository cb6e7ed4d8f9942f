package repro.baselines

import breeze.linalg.{DenseMatrix, eigSym}

import repro.core.LocalGraph

/** Driver-local truncated SVD of a sparse 0/1 bipartite adjacency matrix:
  * block subspace iteration on AᵀA followed by Rayleigh–Ritz, the range
  * finder with power iterations of Halko, Martinsson and Tropp, "Finding
  * structure with randomness" (SIAM Review 53(2), 2011).
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

  /** Components the spectral baselines use: the paper's top 25. */
  val DefaultComponents = 25

  /** Columns the block holds beyond the k wanted. */
  private val Oversample = 10

  /** Rounds of Q ← AᵀA·Q. */
  private val Rounds = 10

  /** Compute the top-k SVD of g's numU × numV adjacency: row i is user
    * index i, column j merchant index j, with a 1 at each live edge.
    */
  def compute(g: LocalGraph, k: Int, seed: Long = 7L): Svd = {
    val nU = g.numU
    val nV = g.numV
    require(k >= 1, s"k must be >= 1, got $k")
    require(nU > 0 && nV > 0, "empty matrix")
    val kk = math.min(k, math.min(nU, nV))
    val b = math.min(k + Oversample, math.min(nU, nV))
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
    def dot(x: Array[Double], y: Array[Double]): Double = {
      var s = 0.0
      var i = 0
      while (i < x.length) { s += x(i) * y(i); i += 1 }
      s
    }
    /** y += a·x. */
    def axpy(a: Double, x: Array[Double], y: Array[Double]): Unit = {
      var i = 0
      while (i < y.length) { y(i) += a * x(i); i += 1 }
    }
    def gaussian(): Array[Double] = Array.fill(nV)(rnd.nextGaussian())

    /** One modified Gram–Schmidt pass over q's columns, in place. A column
      * left with at most 1e-8 of its norm lies in the span of the earlier
      * ones (A's rank is exhausted), so it is redrawn and orthogonalised.
      */
    def orthonormalise(q: Array[Array[Double]]): Unit = {
      var c = 0
      while (c < b) {
        val before = math.sqrt(dot(q(c), q(c)))
        for (j <- 0 until c) axpy(-dot(q(c), q(j)), q(j), q(c))
        val after = math.sqrt(dot(q(c), q(c)))
        if (after <= 1e-8 * before || after == 0.0) q(c) = gaussian()
        else { q(c) = q(c).map(_ / after); c += 1 }
      }
    }

    val q = Array.fill(b)(gaussian())
    orthonormalise(q)
    for (_ <- 0 until Rounds) {
      for (c <- 0 until b) q(c) = multAt(multA(q(c)))
      orthonormalise(q)
    }

    // Rayleigh–Ritz: the eigenvectors W of (AQ)ᵀ(AQ), which eigSym sorts
    // ascending, rotate Q into the right singular vectors V = Q·W.
    val aq = q.map(multA)
    val w = eigSym(DenseMatrix.tabulate(b, b)((i, j) => dot(aq(i), aq(j)))).eigenvectors
    val v = Array.tabulate(kk) { c =>
      val x = new Array[Double](nV)
      for (j <- 0 until b) axpy(w(j, b - 1 - c), q(j), x)
      x
    }
    val av = v.map(multA)
    val s = av.map(y => math.sqrt(dot(y, y)))
    val u = av.indices.map(c => if (s(c) > 1e-12) av(c).map(_ / s(c)) else new Array[Double](nU)).toArray
    Svd(u, s, v)
  }
}
