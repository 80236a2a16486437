package dataset

import (
	"math"
	"testing"

	"haindex/internal/vector"
)

func TestGenerateShapes(t *testing.T) {
	for _, p := range Profiles() {
		vs := Generate(p, 200, 1)
		if len(vs) != 200 {
			t.Fatalf("%s: n=%d", p.Name, len(vs))
		}
		for _, v := range vs {
			if len(v) != p.Dim {
				t.Fatalf("%s: dim=%d want %d", p.Name, len(v), p.Dim)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(NUSWide, 50, 7)
	b := Generate(NUSWide, 50, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
	c := Generate(NUSWide, 50, 8)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateRanges(t *testing.T) {
	vs := Generate(Flickr, 300, 2)
	for _, v := range vs {
		for _, x := range v {
			if x < 0 || x > 1 {
				t.Fatalf("feature out of [0,1]: %v", x)
			}
		}
	}
}

func TestSimplexSumsToOne(t *testing.T) {
	vs := Generate(DBPedia, 100, 3)
	for _, v := range vs {
		sum := 0.0
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative topic weight %v", x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("topic weights sum to %v", sum)
		}
	}
}

func TestGenerateSkew(t *testing.T) {
	// With Zipf weights the most popular cluster should dominate: check
	// that the data is not uniformly spread by measuring distances to the
	// densest point's neighborhood. Cheap proxy: there are repeated
	// near-identical regions. We simply check variance is nonzero and
	// distribution is clustered (mean nearest-neighbor distance much
	// smaller than mean pairwise distance).
	vs := Generate(NUSWide, 200, 4)
	nn := 0.0
	pair := 0.0
	np := 0
	for i := 0; i < 50; i++ {
		best := math.Inf(1)
		for j := range vs {
			if i == j {
				continue
			}
			d := vs[i].Dist(vs[j])
			if d < best {
				best = d
			}
			if j > i {
				pair += d
				np++
			}
		}
		nn += best
	}
	nn /= 50
	pair /= float64(np)
	if nn > pair*0.8 {
		t.Errorf("data not clustered: mean NN %v vs mean pair %v", nn, pair)
	}
}

func TestScaleUp(t *testing.T) {
	base := Generate(NUSWide, 40, 5)
	for _, s := range []int{1, 2, 5} {
		scaled := ScaleUp(base, s)
		if len(scaled) != 40*s {
			t.Fatalf("scale %d: n=%d", s, len(scaled))
		}
		// The first generation is the original data.
		for i := range base {
			if scaled[i].Dist(base[i]) != 0 {
				t.Fatal("scaleup must preserve original tuples")
			}
		}
		// Values stay within the original per-dimension range.
		for j := 0; j < len(base[0]); j++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, v := range base {
				mn = math.Min(mn, v[j])
				mx = math.Max(mx, v[j])
			}
			for _, v := range scaled {
				if v[j] < mn-1e-12 || v[j] > mx+1e-12 {
					t.Fatalf("scaled value %v outside [%v,%v]", v[j], mn, mx)
				}
			}
		}
	}
}

func TestSuccessor(t *testing.T) {
	sorted := []float64{1, 2, 2, 3}
	if got := successor(sorted, 1); got != 2 {
		t.Errorf("succ(1)=%v", got)
	}
	if got := successor(sorted, 2); got != 3 {
		t.Errorf("succ(2)=%v", got)
	}
	if got := successor(sorted, 3); got != 3 {
		t.Errorf("succ(3)=%v (max maps to itself)", got)
	}
	if got := successor(sorted, 0.5); got != 1 {
		t.Errorf("succ(0.5)=%v", got)
	}
}

func TestReservoir(t *testing.T) {
	data := Generate(NUSWide, 100, 6)
	s := Reservoir(data, 10, 1)
	if len(s) != 10 {
		t.Fatalf("sample size %d", len(s))
	}
	// Every sampled vector must come from the data.
	for _, v := range s {
		found := false
		for _, d := range data {
			if v.Dist(d) == 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("sample contains foreign vector")
		}
	}
	// k >= n returns everything.
	all := Reservoir(data, 200, 1)
	if len(all) != 100 {
		t.Fatalf("oversized sample returned %d", len(all))
	}
	// Deterministic per seed.
	s2 := Reservoir(data, 10, 1)
	for i := range s {
		if s[i].Dist(s2[i]) != 0 {
			t.Fatal("reservoir not deterministic")
		}
	}
}

// TestReservoirUniformity: over many seeds, each element should be sampled
// with roughly equal frequency.
func TestReservoirUniformity(t *testing.T) {
	n, k, trials := 20, 5, 2000
	data := make([]vector.Vec, n)
	for i := range data {
		data[i] = vector.Vec{float64(i)}
	}
	counts := make([]int, n)
	for seed := 0; seed < trials; seed++ {
		for _, v := range Reservoir(data, k, int64(seed)) {
			counts[int(v[0])]++
		}
	}
	want := float64(trials*k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Errorf("element %d sampled %d times, want ~%v", i, c, want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("Flickr")
	if err != nil || p.Dim != 512 {
		t.Fatalf("p=%+v err=%v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// TestZipfWeightsShape pins the exported popularity distribution: weights
// are normalized, strictly decreasing for positive skew, uniform at skew 0,
// and steeper skew concentrates more mass on the head — the properties the
// benchmark's fixtures rest on.
func TestZipfWeightsShape(t *testing.T) {
	w := ZipfWeights(100, 1.1)
	sum := 0.0
	for i, x := range w {
		sum += x
		if i > 0 && x >= w[i-1] {
			t.Fatalf("weight %d = %g not below its predecessor %g", i, x, w[i-1])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %g, want 1", sum)
	}
	u := ZipfWeights(10, 0)
	for i, x := range u {
		if math.Abs(x-0.1) > 1e-12 {
			t.Fatalf("skew 0 weight %d = %g, want uniform 0.1", i, x)
		}
	}
	head := func(w []float64) float64 { return w[0] + w[1] + w[2] }
	if head(ZipfWeights(100, 1.5)) <= head(ZipfWeights(100, 0.5)) {
		t.Fatal("steeper skew did not concentrate mass on the head")
	}
}
