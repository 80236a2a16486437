package hash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/dataset"
	"haindex/internal/vector"
)

func gaussianCluster(rng *rand.Rand, center vector.Vec, spread float64, n int) []vector.Vec {
	out := make([]vector.Vec, n)
	for i := range out {
		v := make(vector.Vec, len(center))
		for j := range v {
			v[j] = center[j] + rng.NormFloat64()*spread
		}
		out[i] = v
	}
	return out
}

func randomCenters(rng *rand.Rand, d, k int) []vector.Vec {
	out := make([]vector.Vec, k)
	for i := range out {
		v := make(vector.Vec, d)
		for j := range v {
			v[j] = rng.Float64() * 4
		}
		out[i] = v
	}
	return out
}

func TestLearnSpectralBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var sample []vector.Vec
	for _, c := range randomCenters(rng, 16, 4) {
		sample = append(sample, gaussianCluster(rng, c, 0.2, 100)...)
	}
	s, err := LearnSpectral(sample, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bits() != 32 || s.Dim() != 16 {
		t.Fatalf("bits=%d dim=%d", s.Bits(), s.Dim())
	}
	// Deterministic.
	c1 := s.Hash(sample[0])
	c2 := s.Hash(sample[0])
	if !c1.Equal(c2) {
		t.Error("hash not deterministic")
	}
	if c1.Len() != 32 {
		t.Errorf("code length %d", c1.Len())
	}
}

func TestLearnSpectralErrors(t *testing.T) {
	if _, err := LearnSpectral(nil, 8); err == nil {
		t.Error("expected error on empty sample")
	}
	if _, err := LearnSpectral([]vector.Vec{{1}, {2}}, 0); err == nil {
		t.Error("expected error on zero bits")
	}
	// All-identical sample: no usable direction.
	same := make([]vector.Vec, 10)
	for i := range same {
		same[i] = vector.Vec{1, 1}
	}
	if _, err := LearnSpectral(same, 8); err == nil {
		t.Error("expected error on degenerate sample")
	}
	// A row longer or shorter than row 0 is named, not a panic.
	for _, bad := range []vector.Vec{{1, 2, 3}, {1}} {
		ragged := []vector.Vec{{1, 2}, {3, 5}, {2, 7}, bad, {4, 4}}
		_, err := LearnSpectral(ragged, 2)
		if err == nil || !strings.Contains(err.Error(), "row 3 is not 2-d") {
			t.Errorf("%d-d row 3 among 2-d rows: err = %v, want it named", len(bad), err)
		}
	}
}

// TestSpectralLocality verifies the similarity-preservation property that
// makes Hamming search meaningful: points in the same cluster get codes
// with smaller Hamming distance than points in different clusters, on
// average.
func TestSpectralLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	centers := randomCenters(rng, 24, 4)
	var sample []vector.Vec
	clusters := make([][]vector.Vec, len(centers))
	for i, c := range centers {
		clusters[i] = gaussianCluster(rng, c, 0.1, 80)
		sample = append(sample, clusters[i]...)
	}
	s, err := LearnSpectral(sample, 32)
	if err != nil {
		t.Fatal(err)
	}
	within, across := 0.0, 0.0
	nw, na := 0, 0
	for ci, cl := range clusters {
		for i := 0; i+1 < len(cl); i += 2 {
			within += float64(s.Hash(cl[i]).Distance(s.Hash(cl[i+1])))
			nw++
		}
		other := clusters[(ci+1)%len(clusters)]
		for i := 0; i < len(cl); i += 4 {
			across += float64(s.Hash(cl[i]).Distance(s.Hash(other[i])))
			na++
		}
	}
	within /= float64(nw)
	across /= float64(na)
	if within >= across {
		t.Errorf("spectral hash not locality preserving: within=%.2f across=%.2f", within, across)
	}
}

func TestSimHashDeterminismAndSeed(t *testing.T) {
	a := NewSimHash(8, 16, 1)
	b := NewSimHash(8, 16, 1)
	c := NewSimHash(8, 16, 2)
	v := vector.Vec{1, -2, 3, -4, 5, -6, 7, -8}
	if !a.Hash(v).Equal(b.Hash(v)) {
		t.Error("same seed must give same codes")
	}
	if a.Hash(v).Equal(c.Hash(v)) {
		t.Error("different seeds should give different codes (overwhelmingly)")
	}
	if a.Bits() != 16 || a.Dim() != 8 {
		t.Errorf("bits=%d dim=%d", a.Bits(), a.Dim())
	}
}

// TestSimHashAngleMonotonicity: closer vectors should collide on more bits.
func TestSimHashAngleMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := NewSimHash(32, 64, 7)
	near, far := 0, 0
	trials := 200
	for i := 0; i < trials; i++ {
		v := make(vector.Vec, 32)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		nearV := v.Clone()
		nearV[0] += 0.1
		farV := make(vector.Vec, 32)
		for j := range farV {
			farV[j] = rng.NormFloat64()
		}
		hv := s.Hash(v)
		near += hv.Distance(s.Hash(nearV))
		far += hv.Distance(s.Hash(farV))
	}
	if near >= far {
		t.Errorf("simhash not angle-monotone: near=%d far=%d", near, far)
	}
}

// TestHashAll: however the batch is split over workers, every code is the
// one Hash gives its vector alone, in the batch's order.
func TestHashAll(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vs := uniformVecs(rng, 9, 2001)
	sp, err := LearnSpectral(vs[:200], 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Func{NewSimHash(9, 8, 3), sp} {
		for _, procs := range []int{1, 2, 3} {
			prev := runtime.GOMAXPROCS(procs)
			for _, n := range []int{0, 1, 2, 5, len(vs)} {
				codes := HashAll(f, vs[:n])
				if len(codes) != n {
					t.Fatalf("procs=%d: %d codes for %d vectors", procs, len(codes), n)
				}
				for i, c := range codes {
					if !c.Equal(f.Hash(vs[i])) {
						t.Fatalf("procs=%d n=%d: code %d is not Hash of vector %d", procs, n, i, i)
					}
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// textbookRanges is the range loop as first written: a fresh Sub per row
// and one Dot per principal direction.
func textbookRanges(sample []vector.Vec, mean vector.Vec, proj *vector.Mat) (mn, mx []float64) {
	mn = make([]float64, proj.Rows)
	mx = make([]float64, proj.Rows)
	for i := range mn {
		mn[i] = math.Inf(1)
		mx[i] = math.Inf(-1)
	}
	for _, v := range sample {
		c := v.Sub(mean)
		for i := 0; i < proj.Rows; i++ {
			p := vector.Vec(proj.Row(i)).Dot(c)
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

// TestSampleRangesMatchTextbookLoop holds the blocked range projection to
// the textbook loop bit for bit: row counts not multiples of 4, direction
// counts with and without a tail, a coordinate that centres to exactly 0 on
// every row and a constant one, at GOMAXPROCS 1 and 2.
func TestSampleRangesMatchTextbookLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, d := range []int{7, 225} {
		for _, n := range []int{2, 5, 6001} {
			sample := uniformVecs(rng, d, n)
			for _, v := range sample {
				v[0], v[1] = 0, 0.3
			}
			// The directions need not have converged to test the ranges.
			mean, all := vector.PCATopK(sample, min(d, 64), 5)
			for _, npc := range []int{3, all.Rows} {
				proj := &vector.Mat{Rows: npc, Cols: d, Data: all.Data[:npc*d]}
				wantMn, wantMx := textbookRanges(sample, mean, proj)
				for _, procs := range []int{1, 2} {
					prev := runtime.GOMAXPROCS(procs)
					mn, mx := sampleRanges(sample, mean, proj)
					runtime.GOMAXPROCS(prev)
					for i := range mn {
						if math.Float64bits(mn[i]) != math.Float64bits(wantMn[i]) || math.Float64bits(mx[i]) != math.Float64bits(wantMx[i]) {
							t.Fatalf("d=%d n=%d npc=%d procs=%d: direction %d ranges [%v, %v], textbook [%v, %v]",
								d, n, npc, procs, i, mn[i], mx[i], wantMn[i], wantMx[i])
						}
					}
				}
			}
		}
	}
}

// TestLearnSpectralGolden pins what the learned function is: a digest of
// its parameters (mean, principal directions, each bit's direction, mode,
// offset and width, as float64 bits) and of the codes it gives 2,000
// NUS-WIDE-like vectors it did not see. Both digests were computed with the
// textbook one-row loops; a kernel that reorders one sum moves them.
func TestLearnSpectralGolden(t *testing.T) {
	const (
		wantParams = "42dc1768189e4efb72db2e20f7d06766fec06d9a108e9ce221ce515c3345a974"
		wantCodes  = "0ca7a70d3b45b717796d9b48558fe0ef353d3a4df5a5667e38c4f341b14d25ac"
	)
	data := dataset.Generate(dataset.NUSWide, 3000, 50)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		s, err := LearnSpectral(data[:1000], 64)
		if err != nil {
			t.Fatal(err)
		}
		codes := HashAll(s, data[1000:])
		runtime.GOMAXPROCS(prev)
		p := sha256.New()
		put := func(x float64) { p.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x))) }
		for _, x := range s.mean {
			put(x)
		}
		for _, x := range s.proj.Data {
			put(x)
		}
		for _, b := range s.bits {
			put(float64(b.pc))
			put(float64(b.k))
			put(b.mn)
			put(b.width)
		}
		if got := hex.EncodeToString(p.Sum(nil)); got != wantParams {
			t.Errorf("procs=%d: learned parameters digest %s, want %s", procs, got, wantParams)
		}
		c := sha256.New()
		for _, code := range codes {
			c.Write(code.AppendBytes(nil))
		}
		if got := hex.EncodeToString(c.Sum(nil)); got != wantCodes {
			t.Errorf("procs=%d: codes digest %s, want %s", procs, got, wantCodes)
		}
	}
}

// referenceHash is the spectral hash as the paper states it — centre, project
// on each bit's principal direction, threshold the sinusoidal eigenfunction —
// with none of the compiled kernel's rearrangements. margins[j] is how far
// bit j's argument sits from the nearest sign change of its eigenfunction, in
// units of the eigenfunction's half-period.
func referenceHash(s *Spectral, v vector.Vec) (code bitvec.Code, margins []float64) {
	c := v.Sub(s.mean)
	code = bitvec.New(len(s.bits))
	margins = make([]float64, len(s.bits))
	for j, b := range s.bits {
		p := vector.Vec(s.proj.Row(b.pc)).Dot(c)
		omega := float64(b.k) * math.Pi / b.width
		if math.Sin(math.Pi/2+omega*(p-b.mn)) > 0 {
			code.SetBit(j, true)
		}
		u := float64(b.k)*(p-b.mn)/b.width + 0.5
		margins[j] = math.Abs(u - math.Round(u))
	}
	return code, margins
}

// boundaryTol is how close to a sign change of its eigenfunction a bit must
// sit before the kernel's re-associated arithmetic may read it differently
// from the reference.
const boundaryTol = 1e-9

// checkAgainstReference hashes every vector both ways and fails on any
// differing bit that is not within boundaryTol of a sign change; it returns
// how many such boundary bits differed.
func checkAgainstReference(t *testing.T, s *Spectral, vs []vector.Vec) (boundary int) {
	t.Helper()
	for i, v := range vs {
		got := s.Hash(v)
		want, margins := referenceHash(s, v)
		if got.Len() != want.Len() {
			t.Fatalf("vector %d: %d-bit code, reference %d-bit", i, got.Len(), want.Len())
		}
		for j := range margins {
			if got.Bit(j) == want.Bit(j) {
				continue
			}
			if margins[j] > boundaryTol {
				t.Fatalf("vector %d bit %d: kernel %v, reference %v, %.3g from a boundary",
					i, j, got.Bit(j), want.Bit(j), margins[j])
			}
			boundary++
		}
	}
	return boundary
}

func uniformVecs(rng *rand.Rand, d, n int) []vector.Vec {
	out := make([]vector.Vec, n)
	for i := range out {
		v := make(vector.Vec, d)
		for j := range v {
			v[j] = rng.Float64()*6 - 1
		}
		out[i] = v
	}
	return out
}

// TestKernelMatchesReference: the compiled kernel against the reference over
// clustered (in-sample and fresh) and uniform (mostly out-of-range, negative
// arguments included) inputs, at shapes that exercise every tail of the
// blocked loop: d odd and not a multiple of 4, compiled rows not a multiple
// of 4, bits > d, more compiled rows than Hash keeps on its stack, and a
// sample with a constant coordinate, whose principal direction is degenerate
// and must not be compiled in.
func TestKernelMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		d, bits    int
		constCoord bool
	}{
		{"d16-b32", 16, 32, false},
		{"d7-b5", 7, 5, false},
		{"d37-b22", 37, 22, false},
		{"d5-b16-bits>d", 5, 16, false},
		{"d225-b64", 225, 64, false},
		{"d9-b12-degenerate", 9, 12, true},
		{"d140-b300-heap-scratch", 140, 300, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.d*1000 + tc.bits)))
			var sample []vector.Vec
			for _, c := range randomCenters(rng, tc.d, 5) {
				sample = append(sample, gaussianCluster(rng, c, 0.3, 60)...)
			}
			fresh := gaussianCluster(rng, sample[0], 0.5, 200)
			if tc.constCoord {
				for _, v := range sample {
					v[tc.d-1] = 2.5
				}
				for _, v := range fresh {
					v[tc.d-1] = 2.5
				}
			}
			s, err := LearnSpectral(sample, tc.bits)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.off) > tc.d || len(s.off) > tc.bits || len(s.rows) != len(s.off)*tc.d {
				t.Fatalf("compiled %d rows (%d floats) for d=%d bits=%d", len(s.off), len(s.rows), tc.d, tc.bits)
			}
			for _, b := range s.kern {
				if math.IsInf(b.scale, 0) || math.IsNaN(b.scale) {
					t.Fatalf("degenerate direction compiled in: scale %v", b.scale)
				}
			}
			if tc.bits > maxStackRows && len(s.off) <= maxStackRows {
				t.Fatalf("%d compiled rows do not reach past the stack scratch (%d)", len(s.off), maxStackRows)
			}
			boundary := checkAgainstReference(t, s, sample)
			boundary += checkAgainstReference(t, s, fresh)
			boundary += checkAgainstReference(t, s, uniformVecs(rng, tc.d, 200))
			t.Logf("%d compiled rows; %d boundary bits differed", len(s.off), boundary)
		})
	}
}

// TestKernelAtBitBoundaries walks vectors onto the sign changes of chosen
// bits' eigenfunctions: a step of 1e-6 half-periods to either side must read
// exactly as the reference does, and steps inside boundaryTol may differ only
// on bits the reference itself places inside boundaryTol (counted).
func TestKernelAtBitBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var sample []vector.Vec
	for _, c := range randomCenters(rng, 21, 4) {
		sample = append(sample, gaussianCluster(rng, c, 0.3, 80)...)
	}
	s, err := LearnSpectral(sample, 32)
	if err != nil {
		t.Fatal(err)
	}
	var near []vector.Vec
	for i := 0; i < 60; i++ {
		v0 := sample[rng.Intn(len(sample))]
		b := s.bits[rng.Intn(len(s.bits))]
		dir := vector.Vec(s.proj.Row(b.pc))
		// Solve for the step along dir (unit norm) that lands u = t + ½ on
		// the nearest integer, then offset by eps half-periods.
		p := dir.Dot(v0.Sub(s.mean))
		u := float64(b.k)*(p-b.mn)/b.width + 0.5
		for _, eps := range []float64{-1e-6, -1e-10, -1e-12, 0, 1e-12, 1e-10, 1e-6} {
			alpha := (math.Round(u) + eps - u) * b.width / float64(b.k)
			v := v0.Clone()
			for j := range v {
				v[j] += alpha * dir[j]
			}
			near = append(near, v)
		}
	}
	boundary := checkAgainstReference(t, s, near)
	t.Logf("%d vectors within 1e-6 of a boundary; %d boundary bits differed", len(near), boundary)
}

// TestHashAllocatesOnlyTheCode: the kernel's scratch lives on the stack.
func TestHashAllocatesOnlyTheCode(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	sample := uniformVecs(rng, 225, 300)
	s, err := LearnSpectral(sample, 64)
	if err != nil {
		t.Fatal(err)
	}
	v := sample[7]
	if allocs := testing.AllocsPerRun(200, func() { s.Hash(v) }); allocs != 1 {
		t.Fatalf("Hash allocates %v times per call, want 1 (the code)", allocs)
	}
}

var benchCode bitvec.Code

var benchSpectral *Spectral

// BenchmarkLearnSpectral is phase 1's hash learning at the offline
// pipeline's shape (mrjoin.Preprocess in the benchmark): a 64-bit spectral
// hash from 6,000 sampled NUS-WIDE-like 225-d vectors.
func BenchmarkLearnSpectral(b *testing.B) {
	sample := dataset.Generate(dataset.NUSWide, 6000, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := LearnSpectral(sample, 64)
		if err != nil {
			b.Fatal(err)
		}
		benchSpectral = s
	}
}

// BenchmarkSpectralHash is the per-record cost of every map task of the
// offline pipeline: one 225-d vector through a 64-bit spectral hash.
func BenchmarkSpectralHash(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	sample := uniformVecs(rng, 225, 600)
	s, err := LearnSpectral(sample, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCode = s.Hash(sample[i%len(sample)])
	}
}
