// Package vector provides dense d-dimensional vectors and the small pieces
// of numerical linear algebra (mean, covariance, the leading eigenvectors of
// a symmetric matrix by power iteration) that the learned similarity hash
// functions and the exact kNN baselines are built on.
package vector

import (
	"fmt"
	"math"
)

// Vec is a dense d-dimensional point.
type Vec []float64

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w, its products added in index
// order, each rounded before it is added. It panics on dimension mismatch.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vector: dot of %d-d and %d-d vectors", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += float64(x * w[i])
	}
	return s
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = x - w[i]
	}
	return out
}

// Add accumulates w into v in place.
func (v Vec) Add(w Vec) {
	for i, x := range w {
		v[i] += x
	}
}

// Scale multiplies v by s in place.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 {
	s := 0.0
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Dist2 returns the squared Euclidean distance between v and w; cheaper when
// only comparisons are needed.
func (v Vec) Dist2(w Vec) float64 {
	s := 0.0
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return s
}

// Mean returns the componentwise mean of the rows. It panics if rows is
// empty.
func Mean(rows []Vec) Vec {
	if len(rows) == 0 {
		panic("vector: mean of empty set")
	}
	d := len(rows[0])
	m := make(Vec, d)
	for _, r := range rows {
		m.Add(r)
	}
	m.Scale(1 / float64(len(rows)))
	return m
}

// Covariance returns the d×d sample covariance matrix of the rows around
// their mean, as a dense row-major matrix.
func Covariance(rows []Vec) *Mat {
	if len(rows) < 2 {
		panic("vector: covariance needs at least 2 rows")
	}
	return covariance(rows, Mean(rows))
}

// covariance is Covariance around the rows' mean, which the caller has
// computed. Rows go four at a time: they are centred into one reused
// scratch, and each upper-triangle row of the matrix takes their four
// outer-product terms in one pass, so it is loaded and stored once per four
// data rows instead of once per row. Every entry still adds its products in
// row order, each rounded before it is added (the float64 conversions forbid
// fusing into an FMA), and a centred component that is exactly 0 is skipped,
// as in the one-row loop (against an infinite coordinate its products would
// be NaN): the matrix is the textbook loop's to the bit, whatever n is.
func covariance(rows []Vec, mean Vec) *Mat {
	n, d := len(rows), len(mean)
	cov := NewMat(d, d)
	scratch := make([]float64, 4*d)
	c0, c1, c2, c3 := scratch[:d], scratch[d:2*d], scratch[2*d:3*d], scratch[3*d:]
	r := 0
	for ; r+4 <= n; r += 4 {
		centre(c0, rows[r], mean)
		centre(c1, rows[r+1], mean)
		centre(c2, rows[r+2], mean)
		centre(c3, rows[r+3], mean)
		for i := 0; i < d; i++ {
			row := cov.Data[i*d+i : (i+1)*d]
			a0, a1, a2, a3 := c0[i], c1[i], c2[i], c3[i]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for q := 0; q < 4; q++ {
					c := scratch[q*d : (q+1)*d]
					addScaled(row, c[i], c[i:])
				}
				continue
			}
			x0, x1, x2, x3 := c0[i:][:len(row)], c1[i:][:len(row)], c2[i:][:len(row)], c3[i:][:len(row)]
			for j := range row {
				s := row[j]
				s += float64(a0 * x0[j])
				s += float64(a1 * x1[j])
				s += float64(a2 * x2[j])
				s += float64(a3 * x3[j])
				row[j] = s
			}
		}
	}
	for ; r < n; r++ {
		centre(c0, rows[r], mean)
		for i := 0; i < d; i++ {
			addScaled(cov.Data[i*d+i:(i+1)*d], c0[i], c0[i:])
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

// centre writes r − mean into dst. It panics when r's dimension is not the
// mean's.
func centre(dst, r, mean Vec) {
	if len(r) != len(mean) {
		panic(fmt.Sprintf("vector: covariance of a %d-d row around a %d-d mean", len(r), len(mean)))
	}
	for j, x := range r {
		dst[j] = x - mean[j]
	}
}

// addScaled adds a·x[j] to row[j] for every j of row; a 0 adds nothing and
// is skipped.
func addScaled(row []float64, a float64, x []float64) {
	if a == 0 {
		return
	}
	x = x[:len(row)]
	for j := range row {
		row[j] += float64(a * x[j])
	}
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zeroed r×c matrix.
func NewMat(r, c int) *Mat {
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a mutable slice aliasing the matrix storage.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVecTo writes m·v into dst, which has m.Rows entries, and returns it.
// Rows go four at a time, each with its own accumulator: the four dependency
// chains overlap where a single row's chain would wait out every add's
// latency, and each entry of v is loaded once per four rows. Every row still
// sums its products in index order, each rounded before it is added, so an
// entry is its row's Dot with v to the bit, whichever block the row fell in.
func (m *Mat) MulVecTo(dst, v Vec) Vec {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("vector: %dx%d matrix times %d-d vector, or into a result not %[1]d long", m.Rows, m.Cols, len(v)))
	}
	c := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		// Slicing each row to len(v) is what lets the compiler drop the
		// bounds checks inside the loop.
		r := m.Data[i*c : (i+4)*c]
		r0, r1, r2, r3 := r[:len(v)], r[c:][:len(v)], r[2*c:][:len(v)], r[3*c:][:len(v)]
		var a0, a1, a2, a3 float64
		for j, x := range v {
			a0 += float64(r0[j] * x)
			a1 += float64(r1[j] * x)
			a2 += float64(r2[j] * x)
			a3 += float64(r3[j] * x)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = a0, a1, a2, a3
	}
	for ; i < m.Rows; i++ {
		r := m.Data[i*c:][:len(v)]
		var a float64
		for j, x := range v {
			a += float64(r[j] * x)
		}
		dst[i] = a
	}
	return dst
}
