package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"haindex/internal/bitvec"
)

func paperCodes() []bitvec.Code {
	return []bitvec.Code{
		bitvec.MustFromString("001001010"), // t0
		bitvec.MustFromString("001011101"), // t1
		bitvec.MustFromString("011001100"), // t2
		bitvec.MustFromString("101001010"), // t3
		bitvec.MustFromString("101110110"), // t4
		bitvec.MustFromString("101011101"), // t5
		bitvec.MustFromString("101101010"), // t6
		bitvec.MustFromString("111001100"), // t7
	}
}

func oracle(codes []bitvec.Code, q bitvec.Code, h int) []int {
	var out []int
	for i, c := range codes {
		if q.Distance(c) <= h {
			out = append(out, i)
		}
	}
	return out
}

func equalIDs(a, b []int) bool {
	a = append([]int(nil), a...)
	b = append([]int(nil), b...)
	sort.Ints(a)
	sort.Ints(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func clusteredCodes(rng *rand.Rand, n, bitsLen, clusters, flips int) []bitvec.Code {
	out := make([]bitvec.Code, 0, n)
	for len(out) < n {
		center := bitvec.Rand(rng, bitsLen)
		for i := 0; i < n/clusters+1 && len(out) < n; i++ {
			c := center.Clone()
			for f := 0; f < flips; f++ {
				c.FlipBit(rng.Intn(bitsLen))
			}
			out = append(out, c)
		}
	}
	return out
}

// TestPaperExampleSelect is Example 1: query "101100010" at h=3 over Table
// 2a selects {t0, t3, t4, t6}.
func TestPaperExampleSelect(t *testing.T) {
	codes := paperCodes()
	q := bitvec.MustFromString("101100010")
	want := []int{0, 3, 4, 6}
	for _, w := range []int{2, 3, 4, 8} {
		dyn := BuildDynamic(codes, nil, Options{Window: w, Depth: 4})
		if got := dyn.Search(q, 3); !equalIDs(got, want) {
			t.Errorf("dynamic w=%d: got %v want %v", w, got, want)
		}
	}
	for _, sw := range []int{3, 4, 8} {
		st := BuildStatic(codes, nil, sw)
		if got := st.Search(q, 3); !equalIDs(got, want) {
			t.Errorf("static sw=%d: got %v want %v", sw, got, want)
		}
	}
}

// TestPaperTrace mirrors the H-Search trace of Table 3: query "010001011" at
// h=3 over Table 2a returns exactly t0.
func TestPaperTrace(t *testing.T) {
	codes := paperCodes()
	q := bitvec.MustFromString("010001011")
	want := oracle(codes, q, 3)
	if !equalIDs(want, []int{0}) {
		t.Fatalf("oracle disagrees with the paper: %v", want)
	}
	dyn := BuildDynamic(codes, nil, Options{Window: 2, Depth: 3})
	if got := dyn.Search(q, 3); !equalIDs(got, []int{0}) {
		t.Errorf("trace query: got %v want [0]", got)
	}
}

func TestDynamicAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		bitsLen := []int{8, 16, 32, 64, 128}[trial%5]
		n := 1 + rng.Intn(400)
		var codes []bitvec.Code
		if trial%2 == 0 {
			codes = clusteredCodes(rng, n, bitsLen, 8, 3)
		} else {
			codes = make([]bitvec.Code, n)
			for i := range codes {
				codes[i] = bitvec.Rand(rng, bitsLen)
			}
		}
		opts := Options{Window: 2 + rng.Intn(16), Depth: 1 + rng.Intn(7)}
		dyn := BuildDynamic(codes, nil, opts)
		if dyn.Len() != n {
			t.Fatalf("Len=%d want %d", dyn.Len(), n)
		}
		for q := 0; q < 25; q++ {
			query := codes[rng.Intn(n)].Clone()
			for f := 0; f < rng.Intn(5); f++ {
				query.FlipBit(rng.Intn(bitsLen))
			}
			h := rng.Intn(8)
			if got, want := dyn.Search(query, h), oracle(codes, query, h); !equalIDs(got, want) {
				t.Fatalf("trial %d opts %+v: got %d want %d results", trial, opts, len(got), len(want))
			}
		}
	}
}

func TestStaticAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 8; trial++ {
		bitsLen := []int{9, 16, 32, 64}[trial%4]
		n := 1 + rng.Intn(300)
		codes := clusteredCodes(rng, n, bitsLen, 6, 2)
		segW := []int{3, 4, 8, 16}[rng.Intn(4)]
		st := BuildStatic(codes, nil, segW)
		for q := 0; q < 25; q++ {
			query := codes[rng.Intn(n)].Clone()
			for f := 0; f < rng.Intn(5); f++ {
				query.FlipBit(rng.Intn(bitsLen))
			}
			h := rng.Intn(7)
			if got, want := st.Search(query, h), oracle(codes, query, h); !equalIDs(got, want) {
				t.Fatalf("trial %d segW=%d: mismatch", trial, segW)
			}
		}
	}
}

// TestQuickDynamic is a property-based cross-check with random seeds.
func TestQuickDynamic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		codes := clusteredCodes(rng, n, 32, 4, 4)
		dyn := BuildDynamic(codes, nil, Options{Window: 2 + rng.Intn(8), Depth: 1 + rng.Intn(5)})
		q := bitvec.Rand(rng, 32)
		h := rng.Intn(10)
		return equalIDs(dyn.Search(q, h), oracle(codes, q, h))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSearchCodes(t *testing.T) {
	codes := paperCodes()
	codes = append(codes, codes[0]) // duplicate code, distinct tuple
	q := bitvec.MustFromString("101100010")
	for _, idx := range arenaIndexes(codes) {
		got := NewSearcher(idx).SearchCodes(q, 3)
		// Distinct qualifying codes: t0/t8 share one code, t3, t4, t6.
		if len(got) != 4 {
			t.Fatalf("%T: got %d codes want 4", idx, len(got))
		}
		for _, c := range got {
			if q.Distance(c) > 3 {
				t.Errorf("%T: code %s beyond threshold", idx, c.String())
			}
		}
	}
}

// TestBuildRejectsZeroLengthCodes: the zero value of bitvec.Code is the only
// way to get a 0-bit code, and H-Build refuses it by name.
func TestBuildRejectsZeroLengthCodes(t *testing.T) {
	codes := make([]bitvec.Code, 300) // all zero values: Len() == 0
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("BuildDynamic accepted zero-length codes")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "zero-length") {
			t.Fatalf("BuildDynamic panic message %v lacks zero-length diagnosis", r)
		}
	}()
	BuildDynamic(codes, nil, Options{})
}

func TestDynamicInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	codes := clusteredCodes(rng, 200, 32, 6, 3)
	dyn := BuildDynamic(codes[:100], nil, Options{Window: 8, BufferMax: 16})
	for i := 100; i < 200; i++ {
		dyn.Insert(i, codes[i])
	}
	if dyn.Len() != 200 {
		t.Fatalf("Len=%d", dyn.Len())
	}
	for q := 0; q < 20; q++ {
		query := codes[rng.Intn(200)]
		h := rng.Intn(6)
		if got, want := dyn.Search(query, h), oracle(codes, query, h); !equalIDs(got, want) {
			t.Fatalf("post-insert mismatch: got %d want %d", len(got), len(want))
		}
	}
	// Flush and re-verify.
	dyn.Flush()
	for q := 0; q < 20; q++ {
		query := codes[rng.Intn(200)]
		if got, want := dyn.Search(query, 4), oracle(codes, query, 4); !equalIDs(got, want) {
			t.Fatal("post-flush mismatch")
		}
	}
}

func TestDynamicDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	codes := clusteredCodes(rng, 150, 32, 5, 3)
	dyn := BuildDynamic(codes, nil, Options{Window: 6})
	// Delete every third tuple.
	deleted := map[int]bool{}
	for i := 0; i < 150; i += 3 {
		if !dyn.Delete(i, codes[i]) {
			t.Fatalf("delete %d failed", i)
		}
		deleted[i] = true
	}
	if dyn.Len() != 100 {
		t.Fatalf("Len=%d", dyn.Len())
	}
	for q := 0; q < 25; q++ {
		query := codes[rng.Intn(150)]
		h := rng.Intn(6)
		var want []int
		for i, c := range codes {
			if !deleted[i] && query.Distance(c) <= h {
				want = append(want, i)
			}
		}
		if got := dyn.Search(query, h); !equalIDs(got, want) {
			t.Fatalf("post-delete mismatch")
		}
	}
	// Deleting a nonexistent tuple fails cleanly.
	if dyn.Delete(0, codes[0]) {
		t.Fatal("double delete succeeded")
	}
	if dyn.Delete(9999, bitvec.Rand(rng, 32)) {
		t.Fatal("absent delete succeeded")
	}
}

func TestDeleteBufferedInsert(t *testing.T) {
	codes := paperCodes()
	dyn := BuildDynamic(codes, nil, Options{Window: 2, BufferMax: 100})
	extra := bitvec.MustFromString("110110110")
	dyn.Insert(42, extra)
	if got := dyn.Search(extra, 0); !equalIDs(got, []int{42}) {
		t.Fatalf("buffered insert invisible: %v", got)
	}
	if !dyn.Delete(42, extra) {
		t.Fatal("buffered delete failed")
	}
	if got := dyn.Search(extra, 0); len(got) != 0 {
		t.Fatalf("buffered tuple survived delete: %v", got)
	}
}

func TestStaticInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	codes := clusteredCodes(rng, 100, 32, 4, 2)
	st := BuildStatic(codes[:60], nil, 8)
	for i := 60; i < 100; i++ {
		st.Insert(i, codes[i])
	}
	if st.Len() != 100 {
		t.Fatalf("Len=%d", st.Len())
	}
	for i := 0; i < 30; i++ {
		if !st.Delete(i, codes[i]) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for q := 0; q < 20; q++ {
		query := codes[rng.Intn(100)]
		h := rng.Intn(5)
		var want []int
		for i := 30; i < 100; i++ {
			if query.Distance(codes[i]) <= h {
				want = append(want, i)
			}
		}
		if got := st.Search(query, h); !equalIDs(got, want) {
			t.Fatal("static post-update mismatch")
		}
	}
}

// TestRedundancyElimination verifies the headline claim: on clustered data
// the Dynamic HA-Index performs far fewer distance computations than the
// nested-loop's n per query.
func TestRedundancyElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	codes := clusteredCodes(rng, 5000, 32, 20, 2)
	dyn := BuildDynamic(codes, nil, Options{})
	q := codes[0].Clone()
	q.FlipBit(3)
	var st SearchStats
	dyn.SearchInto(q, 3, &st)
	if st.DistanceComputations >= len(codes) {
		t.Errorf("HA-Index did %d distance computations for n=%d; expected sublinear",
			st.DistanceComputations, len(codes))
	}
}

// TestDownwardClosurePruning: a query far from every cluster prunes at the
// top of the hierarchy.
func TestDownwardClosurePruning(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	center := bitvec.Rand(rng, 64)
	codes := make([]bitvec.Code, 1000)
	for i := range codes {
		c := center.Clone()
		c.FlipBit(rng.Intn(64))
		codes[i] = c
	}
	dyn := BuildDynamic(codes, nil, Options{})
	// Query = complement of the center: distance ~63 to everything.
	q := center.Clone()
	for i := 0; i < 64; i++ {
		q.FlipBit(i)
	}
	var st SearchStats
	if got := dyn.SearchInto(q, 3, &st); len(got) != 0 {
		t.Fatalf("got %d results", len(got))
	}
	if st.DistanceComputations > 200 {
		t.Errorf("pruning ineffective: %d computations", st.DistanceComputations)
	}
}

func TestNodeEdgeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	codes := clusteredCodes(rng, 500, 32, 8, 2)
	dyn := BuildDynamic(codes, nil, Options{})
	v, e := dyn.NodeCount(), dyn.EdgeCount()
	if v <= 0 || e <= 0 {
		t.Fatalf("V=%d E=%d", v, e)
	}
	// Section 4.7: the index should be small relative to the dataset.
	if v > len(codes) {
		t.Errorf("more internal nodes (%d) than tuples (%d)", v, len(codes))
	}
	st := BuildStatic(codes, nil, 8)
	if st.NodeCount() <= 0 || st.EdgeCount() <= 0 {
		t.Error("static counts must be positive")
	}
}

func TestSizeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	codes := clusteredCodes(rng, 300, 32, 6, 2)
	dyn := BuildDynamic(codes, nil, Options{})
	if dyn.SizeBytes() != dyn.InternalSizeBytes()+dyn.LeafSizeBytes() {
		t.Error("size decomposition broken")
	}
	if dyn.InternalSizeBytes() >= dyn.SizeBytes() {
		t.Error("internal-only must be smaller than total")
	}
}

func TestTuplesIteration(t *testing.T) {
	codes := paperCodes()
	dyn := BuildDynamic(codes, nil, Options{Window: 2, BufferMax: 100})
	dyn.Insert(99, bitvec.MustFromString("110110110"))
	seen := map[int]bool{}
	dyn.Tuples(func(id int, c bitvec.Code) { seen[id] = true })
	if len(seen) != 9 {
		t.Fatalf("saw %d tuples want 9", len(seen))
	}
	if !seen[99] {
		t.Fatal("buffered tuple not iterated")
	}
}

func TestDuplicateCodesShareLeaf(t *testing.T) {
	c := bitvec.MustFromString("10101010")
	codes := []bitvec.Code{c, c, c, bitvec.MustFromString("01010101")}
	dyn := BuildDynamic(codes, nil, Options{Window: 2})
	got := dyn.Search(c, 0)
	if !equalIDs(got, []int{0, 1, 2}) {
		t.Fatalf("got %v", got)
	}
}

func TestSingleTuple(t *testing.T) {
	codes := []bitvec.Code{bitvec.MustFromString("1111")}
	dyn := BuildDynamic(codes, nil, Options{})
	if got := dyn.Search(bitvec.MustFromString("1110"), 1); !equalIDs(got, []int{0}) {
		t.Fatalf("got %v", got)
	}
	if got := dyn.Search(bitvec.MustFromString("0000"), 1); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}
