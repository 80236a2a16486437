package vector

import "math"

// TopKEigenSym computes the k largest eigenpairs of a symmetric positive
// semidefinite matrix by power iteration with deflation, iters mat-vecs
// (MulVecTo) per component unless it converges first. It is the method of
// choice when the matrix is large (e.g. a 512×512 covariance) and only a few
// leading directions are needed, where full Jacobi would be cubic per sweep.
// Eigenvalues are returned in descending order; eigenvectors are the rows of
// the returned k×n matrix. The input is not modified.
func TopKEigenSym(a *Mat, k, iters int) (vals Vec, vecs *Mat) {
	n := a.Rows
	if n != a.Cols {
		panic("vector: TopKEigenSym of non-square matrix")
	}
	if k > n {
		k = n
	}
	if iters <= 0 {
		iters = 100
	}
	w := NewMat(n, n)
	copy(w.Data, a.Data)
	vals = make(Vec, k)
	vecs = NewMat(k, n)
	// The iterate and the product alternate between two buffers, so an
	// iteration allocates nothing.
	v, next := make(Vec, n), make(Vec, n)
	for comp := 0; comp < k; comp++ {
		// Deterministic start: spread mass over all coordinates with a
		// component-dependent phase so successive components do not start
		// parallel to an already-deflated direction.
		for i := range v {
			v[i] = math.Cos(float64(i+1) * float64(comp+1) * 0.7391)
		}
		normalize(v)
		for it := 0; it < iters; it++ {
			w.MulVecTo(next, v)
			l := next.Norm()
			if l < 1e-15 {
				// Remaining spectrum is (numerically) zero.
				break
			}
			next.Scale(1 / l)
			delta := 1 - math.Abs(next.Dot(v))
			v, next = next, v
			if delta < 1e-12 && it > 2 {
				break
			}
		}
		// Rayleigh quotient gives a signed eigenvalue even though the norm
		// above is unsigned; covariance matrices are PSD so they agree.
		lambda := v.Dot(w.MulVecTo(next, v))
		vals[comp] = lambda
		copy(vecs.Row(comp), v)
		// Deflate: w -= lambda * v vᵀ.
		for i := 0; i < n; i++ {
			vi := v[i]
			if vi == 0 {
				continue
			}
			row := w.Row(i)
			for j := 0; j < n; j++ {
				row[j] -= lambda * vi * v[j]
			}
		}
	}
	return vals, vecs
}

func normalize(v Vec) {
	n := v.Norm()
	if n > 0 {
		v.Scale(1 / n)
	}
}

// PCATopK computes the top-k principal directions of the rows by power
// iteration (TopKEigenSym over their Covariance, the mean computed once for
// both): the method the spectral hash learns with, where a full
// eigen-decomposition would be cubic in d per sweep. It returns the data
// mean and a k×d projection matrix whose rows are the principal directions.
// The blocked kernels underneath keep every sum in the textbook order, so
// the directions do not depend on the blocking or on GOMAXPROCS.
func PCATopK(rows []Vec, k, iters int) (mean Vec, proj *Mat) {
	if len(rows) < 2 {
		panic("vector: covariance needs at least 2 rows")
	}
	mean = Mean(rows)
	_, proj = TopKEigenSym(covariance(rows, mean), k, iters)
	return mean, proj
}
