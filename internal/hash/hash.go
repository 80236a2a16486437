// Package hash implements the similarity hash functions that map
// d-dimensional feature vectors to fixed-length binary codes, the
// preprocessing step every Hamming-distance query in the paper assumes.
//
// Two families are provided: Spectral Hashing (Weiss, Torralba, Fergus,
// NIPS'08) — the data-dependent, learned function the paper uses in all
// experiments — and SimHash (Charikar, STOC'02) random-hyperplane hashing,
// the data-independent function used by near-duplicate detection systems
// such as Manku et al.'s web crawler.
package hash

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"haindex/internal/bitvec"
	"haindex/internal/vector"
)

// Func maps feature vectors to binary codes of a fixed length. A Func learned
// from a sample of one dataset must be applied to every tuple of both join
// sides so their codes are comparable.
type Func interface {
	// Hash maps one vector to its binary code.
	Hash(v vector.Vec) bitvec.Code
	// Bits returns the code length L.
	Bits() int
	// Dim returns the input dimensionality d.
	Dim() int
}

// HashAll maps a batch of vectors through f. The batch is split into one
// contiguous range per GOMAXPROCS worker, so f.Hash must be safe for
// concurrent use (Spectral's and SimHash's are). A code depends on its own
// vector alone, so the result does not depend on the split. A vector whose
// dimension is not f's panics here, before any worker starts.
func HashAll(f Func, vs []vector.Vec) []bitvec.Code {
	d := f.Dim()
	for _, v := range vs {
		if len(v) != d {
			panic(fmt.Sprintf("hash: %d-d vector in a batch for a %d-d function", len(v), d))
		}
	}
	out := make([]bitvec.Code, len(vs))
	workers := min(runtime.GOMAXPROCS(0), len(vs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(vs)/workers, (w+1)*len(vs)/workers
		wg.Add(1)
		go func() {
			for i := lo; i < hi; i++ {
				out[i] = f.Hash(vs[i])
			}
			wg.Done()
		}()
	}
	wg.Wait()
	return out
}

// Spectral is a learned spectral-hashing function. Learning fits PCA to a
// sample, then selects the bits analytical eigenfunctions with the smallest
// eigenvalues across the principal directions; each output bit thresholds a
// sinusoidal eigenfunction of one principal projection.
//
// mean, proj and bits are the function as learned; rows, off and kern are
// the same function compiled for Hash (see compile).
type Spectral struct {
	mean vector.Vec
	proj *vector.Mat // nPC×d principal directions (rows)
	bits []spectralBit
	dim  int

	rows []float64 // len(off)×dim, row-major: the principal rows some bit references
	off  []float64 // per compiled row: row·mean + mn, so that p − mn = row·v − off
	kern []kernelBit
}

// spectralBit is the eigenfunction sin(π/2 + kπ(p−mn)/width) of the
// projection p on principal direction pc, whose sampled range is
// [mn, mn+width].
type spectralBit struct {
	pc    int
	k     int
	mn    float64
	width float64
}

// kernelBit is a spectralBit against the compiled rows: with
// t = (row·v − off[row])·scale, scale = k/width, the eigenfunction is cos(πt).
type kernelBit struct {
	row   int
	scale float64
}

// LearnSpectral learns a bits-bit spectral hash function from a sample of the
// dataset. The number of principal components used is min(bits, d). It
// returns an error when the sample is too small to estimate a covariance or
// when its rows differ in dimension.
func LearnSpectral(sample []vector.Vec, bits int) (*Spectral, error) {
	if len(sample) < 2 {
		return nil, fmt.Errorf("hash: spectral learning needs >= 2 samples, got %d", len(sample))
	}
	if bits <= 0 {
		return nil, fmt.Errorf("hash: invalid code length %d", bits)
	}
	d := len(sample[0])
	for i, v := range sample {
		if len(v) != d {
			return nil, fmt.Errorf("hash: sample row %d is not %d-d like row 0", i, d)
		}
	}
	npc := bits
	if npc > d {
		npc = d
	}
	mean, proj := vector.PCATopK(sample, npc, 100)
	mn, mx := sampleRanges(sample, mean, proj)

	// Candidate eigenfunctions (pc, mode k) with analytical eigenvalue
	// proportional to (k/(mx-mn))²; keep the bits smallest.
	type cand struct {
		pc  int
		k   int
		val float64
	}
	maxMode := bits + 1
	cands := make([]cand, 0, npc*maxMode)
	for i := 0; i < npc; i++ {
		r := mx[i] - mn[i]
		if r <= 0 || math.IsInf(r, 0) {
			// Degenerate direction (constant projection): unusable.
			continue
		}
		for k := 1; k <= maxMode; k++ {
			f := float64(k) / r
			cands = append(cands, cand{pc: i, k: k, val: f * f})
		}
	}
	if len(cands) < bits {
		return nil, fmt.Errorf("hash: sample too degenerate for %d bits (%d usable eigenfunctions)", bits, len(cands))
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].val != cands[b].val {
			return cands[a].val < cands[b].val
		}
		if cands[a].pc != cands[b].pc {
			return cands[a].pc < cands[b].pc
		}
		return cands[a].k < cands[b].k
	})
	sb := make([]spectralBit, bits)
	for j := 0; j < bits; j++ {
		c := cands[j]
		sb[j] = spectralBit{pc: c.pc, k: c.k, mn: mn[c.pc], width: mx[c.pc] - mn[c.pc]}
	}
	s := &Spectral{mean: mean, proj: proj, bits: sb, dim: d}
	s.compile()
	return s, nil
}

// sampleRanges returns the least and the greatest projection of the
// sample's centred rows on each principal direction (each row of proj).
// Every row is centred into one reused vector and projected on four
// directions per pass (vector.Mat.MulVecTo); each projection sums its
// products in index order, so it is the direction's Dot with the centred
// row to the bit.
func sampleRanges(sample []vector.Vec, mean vector.Vec, proj *vector.Mat) (mn, mx []float64) {
	mn = make([]float64, proj.Rows)
	mx = make([]float64, proj.Rows)
	for i := range mn {
		mn[i] = math.Inf(1)
		mx[i] = math.Inf(-1)
	}
	c := make(vector.Vec, len(mean))
	ps := make(vector.Vec, proj.Rows)
	for _, v := range sample {
		for j, x := range v {
			c[j] = x - mean[j]
		}
		for i, p := range proj.MulVecTo(ps, c) {
			if p < mn[i] {
				mn[i] = p
			}
			if p > mx[i] {
				mx[i] = p
			}
		}
	}
	return mn, mx
}

// Bits returns the code length.
func (s *Spectral) Bits() int { return len(s.bits) }

// Dim returns the input dimensionality.
func (s *Spectral) Dim() int { return s.dim }

// compile lays the learned function out for Hash: the principal rows some
// bit references, copied back to back in first-use order, each with the
// constant its projection is measured from. Folding row·mean into that
// constant replaces centring every input (a d-vector per call) by one
// subtraction per row.
func (s *Spectral) compile() {
	rowOf := make(map[int]int)
	s.kern = make([]kernelBit, len(s.bits))
	for j, b := range s.bits {
		row, ok := rowOf[b.pc]
		if !ok {
			row = len(s.off)
			rowOf[b.pc] = row
			pr := vector.Vec(s.proj.Row(b.pc))
			s.rows = append(s.rows, pr...)
			s.off = append(s.off, pr.Dot(s.mean)+b.mn)
		}
		s.kern[j] = kernelBit{row: row, scale: float64(b.k) / b.width}
	}
}

// maxStackRows bounds the projections Hash keeps on its stack; a function
// with more compiled rows (bits > 128 on wide data) allocates them.
const maxStackRows = 128

// Hash maps v to its spectral binary code. Bit j is the sign of the
// eigenfunction sin(π/2 + kπ(p−mn)/width) = cos(πt) at v's projection on bit
// j's principal direction, which is positive exactly when ⌊t + ½⌋ is even:
// the bit is read off that parity, with no call into math.Sin. The only
// allocation is the returned code.
//
// The arithmetic is plain Go with every product rounded before it is added
// (the float64 conversions in project forbid fusing into an FMA), so a
// vector hashes to the same code on every machine and GOAMD64 level.
func (s *Spectral) Hash(v vector.Vec) bitvec.Code {
	if len(v) != s.dim {
		panic(fmt.Sprintf("hash: spectral hash of %d-d vector, learned on %d-d", len(v), s.dim))
	}
	var stack [maxStackRows]float64
	ps := stack[:]
	if len(s.off) > len(ps) {
		ps = make([]float64, len(s.off))
	}
	ps = ps[:len(s.off)]
	s.project(ps, v)
	code := bitvec.New(len(s.kern))
	for j, b := range s.kern {
		f := math.Floor(ps[b.row]*b.scale + 0.5)
		if f == 2*math.Floor(f/2) {
			code.SetBit(j, true)
		}
	}
	return code
}

// project writes row·v − off into ps for every compiled row. Rows go four
// at a time, each with its own accumulator: the four dependency chains
// overlap where a single row's chain would wait out every add's latency,
// and each component of v is loaded once per four rows. Every row still sums
// its products in index order, so a projection does not depend on which
// block its row fell in.
func (s *Spectral) project(ps []float64, v []float64) {
	d := len(v)
	i := 0
	for ; i+4 <= len(ps); i += 4 {
		// Slicing each row to len(v) is what lets the compiler drop the
		// bounds checks inside the loop.
		r := s.rows[i*d : (i+4)*d]
		r0, r1, r2, r3 := r[:len(v)], r[d:][:len(v)], r[2*d:][:len(v)], r[3*d:][:len(v)]
		var a0, a1, a2, a3 float64
		for j, x := range v {
			a0 += float64(r0[j] * x)
			a1 += float64(r1[j] * x)
			a2 += float64(r2[j] * x)
			a3 += float64(r3[j] * x)
		}
		ps[i], ps[i+1], ps[i+2], ps[i+3] = a0-s.off[i], a1-s.off[i+1], a2-s.off[i+2], a3-s.off[i+3]
	}
	for ; i < len(ps); i++ {
		r := s.rows[i*d : (i+1)*d][:len(v)]
		var a float64
		for j, x := range v {
			a += float64(r[j] * x)
		}
		ps[i] = a - s.off[i]
	}
}

// SimHash is Charikar's random-hyperplane hash: bit j is the sign of the
// inner product with a fixed random Gaussian direction. It is
// data-independent; two vectors' codes collide on a bit with probability
// 1 - angle/π.
type SimHash struct {
	planes []vector.Vec
	dim    int
}

// NewSimHash returns a bits-bit SimHash over d-dimensional inputs with
// hyperplanes drawn deterministically from seed.
func NewSimHash(d, bits int, seed int64) *SimHash {
	if d <= 0 || bits <= 0 {
		panic(fmt.Sprintf("hash: invalid SimHash dims d=%d bits=%d", d, bits))
	}
	rng := rand.New(rand.NewSource(seed))
	planes := make([]vector.Vec, bits)
	for j := range planes {
		p := make(vector.Vec, d)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		planes[j] = p
	}
	return &SimHash{planes: planes, dim: d}
}

// Hash maps v to its SimHash code.
func (s *SimHash) Hash(v vector.Vec) bitvec.Code {
	if len(v) != s.dim {
		panic(fmt.Sprintf("hash: simhash of %d-d vector, constructed for %d-d", len(v), s.dim))
	}
	code := bitvec.New(len(s.planes))
	for j, p := range s.planes {
		if p.Dot(v) > 0 {
			code.SetBit(j, true)
		}
	}
	return code
}

// Bits returns the code length.
func (s *SimHash) Bits() int { return len(s.planes) }

// Dim returns the input dimensionality.
func (s *SimHash) Dim() int { return s.dim }
