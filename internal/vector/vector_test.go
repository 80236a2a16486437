package vector

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestDotSubNorm(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if got := a.Dot(b); got != 32 {
		t.Errorf("dot = %v", got)
	}
	if got := a.Sub(b); got[0] != -3 || got[1] != -3 || got[2] != -3 {
		t.Errorf("sub = %v", got)
	}
	if got := (Vec{3, 4}).Norm(); got != 5 {
		t.Errorf("norm = %v", got)
	}
	if got := a.Dist(b); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Errorf("dist = %v", got)
	}
	if got := a.Dist2(b); got != 27 {
		t.Errorf("dist2 = %v", got)
	}
}

func TestDistProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(20)
		a, b, c := randVec(rng, d), randVec(rng, d), randVec(rng, d)
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		if a.Dist(a) > 1e-12 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randVec(rng *rand.Rand, d int) Vec {
	v := make(Vec, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestMeanCovariance(t *testing.T) {
	rows := []Vec{{1, 2}, {3, 4}, {5, 6}}
	m := Mean(rows)
	if m[0] != 3 || m[1] != 4 {
		t.Fatalf("mean = %v", m)
	}
	cov := Covariance(rows)
	// Var of {1,3,5} = 4; covariance with {2,4,6} also 4.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(cov.At(i, j)-4) > 1e-12 {
				t.Fatalf("cov(%d,%d) = %v", i, j, cov.At(i, j))
			}
		}
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := NewMat(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 5)
	a.Set(2, 2, 3)
	vals, vecs := EigenSym(a, 0)
	want := []float64{5, 3, 1}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-9 {
			t.Fatalf("vals = %v", vals)
		}
	}
	// Eigenvector columns should be signed basis vectors.
	for k, dim := range []int{1, 2, 0} {
		col := vecs.Col(k)
		if math.Abs(math.Abs(col[dim])-1) > 1e-9 {
			t.Fatalf("vec %d = %v", k, col)
		}
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := EigenSym(a, 0)
		// Check A v_k = λ_k v_k and orthonormality.
		for k := 0; k < n; k++ {
			v := vecs.Col(k)
			av := a.MulVecTo(make(Vec, n), v)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-vals[k]*v[i]) > 1e-7 {
					t.Fatalf("A v != λ v at trial %d k=%d i=%d: %v vs %v", trial, k, i, av[i], vals[k]*v[i])
				}
			}
			for l := 0; l < n; l++ {
				dot := v.Dot(vecs.Col(l))
				want := 0.0
				if l == k {
					want = 1
				}
				if math.Abs(dot-want) > 1e-7 {
					t.Fatalf("not orthonormal: <v%d,v%d>=%v", k, l, dot)
				}
			}
		}
		// Eigenvalues descending.
		for k := 1; k < n; k++ {
			if vals[k] > vals[k-1]+1e-9 {
				t.Fatalf("vals not sorted: %v", vals)
			}
		}
	}
}

func TestTopKMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(5)
		// Build a PSD matrix B Bᵀ.
		b := NewMat(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += b.At(i, k) * b.At(j, k)
				}
				a.Set(i, j, s)
			}
		}
		jvals, _ := EigenSym(a, 0)
		k := 2
		pvals, pvecs := TopKEigenSym(a, k, 500)
		for i := 0; i < k; i++ {
			rel := math.Abs(pvals[i]-jvals[i]) / math.Max(1e-9, math.Abs(jvals[i]))
			if rel > 1e-3 {
				t.Fatalf("trial %d eigenvalue %d: power=%v jacobi=%v", trial, i, pvals[i], jvals[i])
			}
			v := Vec(pvecs.Row(i))
			if math.Abs(v.Norm()-1) > 1e-6 {
				t.Fatalf("eigenvector %d not unit", i)
			}
		}
	}
}

func TestPCAVariance(t *testing.T) {
	// Data stretched along one axis: PCA's first direction should align
	// with it.
	rng := rand.New(rand.NewSource(33))
	rows := make([]Vec, 500)
	for i := range rows {
		rows[i] = Vec{rng.NormFloat64() * 10, rng.NormFloat64(), rng.NormFloat64() * 0.1}
	}
	_, proj := PCATopK(rows, 2, 200)
	first := Vec(proj.Row(0))
	if math.Abs(math.Abs(first[0])-1) > 0.05 {
		t.Errorf("first PC should align with axis 0: %v", first)
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVecTo(make(Vec, 2), Vec{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("mulvec = %v", got)
	}
}

// Col returns column j as a fresh vector.
func (m *Mat) Col(j int) Vec {
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// EigenSym computes the eigen-decomposition of a symmetric matrix using the
// cyclic Jacobi method: the full-spectrum reference TopKEigenSym is held to. It returns eigenvalues in descending order and the
// corresponding orthonormal eigenvectors as the columns of the returned
// matrix. The input is not modified.
func EigenSym(a *Mat, maxSweeps int) (vals Vec, vecs *Mat) {
	n := a.Rows
	if n != a.Cols {
		panic("vector: EigenSym of non-square matrix")
	}
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	// Work on a copy.
	w := NewMat(n, n)
	copy(w.Data, a.Data)
	v := NewMat(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const eps = 1e-20
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < eps {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < eps {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}
	vals = make(Vec, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[order[j]] > vals[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	sortedVals := make(Vec, n)
	sortedVecs := NewMat(n, n)
	for k, idx := range order {
		sortedVals[k] = vals[idx]
		for i := 0; i < n; i++ {
			sortedVecs.Set(i, k, v.At(i, idx))
		}
	}
	return sortedVals, sortedVecs
}

// rotate applies a Jacobi rotation in the (p, q) plane to w and accumulates
// it into the eigenvector matrix v.
func rotate(w, v *Mat, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// textbookCovariance is Covariance as the one-row loop computes it: centre
// each row with a fresh Sub, add its outer product to the upper triangle,
// skipping a zero component, then scale and mirror. The blocked kernel must
// equal it bit for bit.
func textbookCovariance(rows []Vec) *Mat {
	n := len(rows)
	d := len(rows[0])
	mean := Mean(rows)
	cov := NewMat(d, d)
	for _, r := range rows {
		c := r.Sub(mean)
		for i := 0; i < d; i++ {
			ci := c[i]
			if ci == 0 {
				continue
			}
			row := cov.Row(i)
			for j := i; j < d; j++ {
				row[j] += ci * c[j]
			}
		}
	}
	inv := 1 / float64(n-1)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := cov.At(i, j) * inv
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return cov
}

// textbookMulVec is m·v one Dot per row.
func textbookMulVec(m *Mat, v Vec) Vec {
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j, x := range m.Row(i) {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// textbookTopKEigenSym is TopKEigenSym with a fresh vector per mat-vec, each
// entry one textbook dot product.
func textbookTopKEigenSym(a *Mat, k, iters int) (vals Vec, vecs *Mat) {
	n := a.Rows
	if k > n {
		k = n
	}
	w := NewMat(n, n)
	copy(w.Data, a.Data)
	vals = make(Vec, k)
	vecs = NewMat(k, n)
	for comp := 0; comp < k; comp++ {
		v := make(Vec, n)
		for i := range v {
			v[i] = math.Cos(float64(i+1) * float64(comp+1) * 0.7391)
		}
		normalize(v)
		for it := 0; it < iters; it++ {
			next := textbookMulVec(w, v)
			l := next.Norm()
			if l < 1e-15 {
				break
			}
			next.Scale(1 / l)
			delta := 1 - math.Abs(next.Dot(v))
			v = next
			if delta < 1e-12 && it > 2 {
				break
			}
		}
		lambda := v.Dot(textbookMulVec(w, v))
		vals[comp] = lambda
		copy(vecs.Row(comp), v)
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

// sameBits reports the first index where a and b differ as float64 bit
// patterns, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// kernelRows draws n d-dimensional rows that exercise every branch of the
// blocked covariance: coordinate 0 is constant 0 (every centred component
// exactly 0), coordinate 1 is constant 0.3 (a constant whose mean need not
// be exact), and coordinate 2 is ±1.5 on rows 0 and 1 and 0 elsewhere, so its
// mean is exactly 0 and rows 2.. centre to exactly 0 in blocks that also
// hold non-zero components.
func kernelRows(rng *rand.Rand, n, d int) []Vec {
	rows := make([]Vec, n)
	for r := range rows {
		v := make(Vec, d)
		for j := range v {
			v[j] = float64(float32(rng.Float64()))
		}
		v[0], v[1], v[2] = 0, 0.3, 0
		rows[r] = v
	}
	rows[0][2], rows[1][2] = 1.5, -1.5
	return rows
}

// TestKernelsMatchTextbookLoops holds the blocked Covariance, TopKEigenSym
// and MulVecTo to the one-row loops bit for bit, at row counts that are not
// multiples of 4, at the spectral hash's 225 dimensions, with exactly-zero
// centred components and constant coordinates, and at GOMAXPROCS 1 and 2.
func TestKernelsMatchTextbookLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, d := range []int{7, 225} {
		for _, n := range []int{2, 5, 6001} {
			if testing.Short() && n > 1000 && d > 10 {
				continue
			}
			rows := kernelRows(rng, n, d)
			wantCov := textbookCovariance(rows)
			k := min(d, 8)
			wantVals, wantVecs := textbookTopKEigenSym(wantCov, k, 100)
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				cov := Covariance(rows)
				vals, vecs := TopKEigenSym(cov, k, 100)
				mean, proj := PCATopK(rows, k, 100)
				runtime.GOMAXPROCS(prev)
				if i := sameBits(cov.Data, wantCov.Data); i >= 0 {
					t.Fatalf("d=%d n=%d procs=%d: covariance entry %d differs from the textbook loop", d, n, procs, i)
				}
				if i := sameBits(vals, wantVals); i >= 0 {
					t.Fatalf("d=%d n=%d procs=%d: eigenvalue %d differs from the textbook loop", d, n, procs, i)
				}
				if i := sameBits(vecs.Data, wantVecs.Data); i >= 0 {
					t.Fatalf("d=%d n=%d procs=%d: eigenvector entry %d differs from the textbook loop", d, n, procs, i)
				}
				if sameBits(mean, Mean(rows)) >= 0 || sameBits(proj.Data, wantVecs.Data) >= 0 {
					t.Fatalf("d=%d n=%d procs=%d: PCATopK differs from Mean and TopKEigenSym of the covariance", d, n, procs)
				}
			}
		}
	}
}

// TestCovarianceNonFiniteMatchesTextbookLoop: with an infinite coordinate
// the products of a zero centred component are NaN, which the textbook loop
// never adds because it skips the zero; the blocked kernel must skip it too.
func TestCovarianceNonFiniteMatchesTextbookLoop(t *testing.T) {
	rows := kernelRows(rand.New(rand.NewSource(38)), 9, 7)
	rows[5][4] = math.Inf(1)
	want := textbookCovariance(rows)
	if i := sameBits(Covariance(rows).Data, want.Data); i >= 0 {
		t.Fatalf("covariance entry %d differs from the textbook loop", i)
	}
}

func TestMulVecToMatchesDots(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for rows := 1; rows <= 9; rows++ {
		for _, cols := range []int{1, 3, 7, 225} {
			m := NewMat(rows, cols)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			v := randVec(rng, cols)
			v[0] = 0
			dst := make(Vec, rows)
			if i := sameBits(m.MulVecTo(dst, v), textbookMulVec(m, v)); i >= 0 {
				t.Fatalf("%dx%d: entry %d differs from its row's dot product", rows, cols, i)
			}
		}
	}
}

func TestTopKEigenSymAllocs(t *testing.T) {
	a := textbookCovariance(kernelRows(rand.New(rand.NewSource(36)), 50, 20))
	// The copy of a, the results and the two iteration buffers, whatever
	// the number of iterations.
	if allocs := testing.AllocsPerRun(5, func() { TopKEigenSym(a, 4, 100) }); allocs != 6 {
		t.Fatalf("TopKEigenSym allocates %v times, want 6", allocs)
	}
}

var benchMat *Mat

// BenchmarkCovariance is the covariance the spectral hash is learned from at
// the offline pipeline's shape: 6,000 sampled 225-d rows.
func BenchmarkCovariance(b *testing.B) {
	rows := kernelRows(rand.New(rand.NewSource(37)), 6000, 225)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMat = Covariance(rows)
	}
}
