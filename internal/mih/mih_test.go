package mih

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

// clusteredCodes produces codes with heavy sharing, like hashed real data.
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

func uniformCodes(rng *rand.Rand, n, bitsLen int) []bitvec.Code {
	out := make([]bitvec.Code, n)
	for i := range out {
		out[i] = bitvec.Rand(rng, bitsLen)
	}
	return out
}

// oracle is the nested-loop scan every engine must agree with.
func oracle(codes []bitvec.Code, q bitvec.Code, h int) []int {
	var out []int
	for i, c := range codes {
		if _, ok := q.DistanceWithin(c, h); ok {
			out = append(out, i)
		}
	}
	return out
}

func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	a, b = sortedCopy(a), sortedCopy(b)
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

// TestSearchMatchesOracle is the exactness property test: frozen MIH search
// equals the brute-force scan across code widths, thresholds 0..10, both
// code distributions, and several block/matched configurations. Run under
// -race by make test-race.
func TestSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, bitsLen := range []int{32, 64, 128} {
		for _, clustered := range []bool{true, false} {
			var codes []bitvec.Code
			if clustered {
				codes = clusteredCodes(rng, 250, bitsLen, 8, 3)
			} else {
				codes = uniformCodes(rng, 250, bitsLen)
			}
			for _, opts := range []Options{{}, {Blocks: 4}, {Blocks: 5, Matched: 2}} {
				m, err := Build(codes, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				sr := core.NewSearcher(core.AsIndex(m))
				for qi := 0; qi < 15; qi++ {
					q := codes[rng.Intn(len(codes))].Clone()
					for f := 0; f < rng.Intn(5); f++ {
						q.FlipBit(rng.Intn(bitsLen))
					}
					for h := 0; h <= 10; h++ {
						want := oracle(codes, q, h)
						if got := sortedCopy(sr.Search(q, h)); !equalIDs(got, want) {
							t.Fatalf("bits=%d clustered=%v opts=%+v h=%d: got %d ids, want %d",
								bitsLen, clustered, opts, h, len(got), len(want))
						}
						if got := sortedCopy(m.Search(q, h)); !equalIDs(got, want) {
							t.Fatalf("bits=%d direct search h=%d: got %d ids, want %d", bitsLen, h, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestSearchZeroAlloc pins the steady-state allocation-free property: after
// the first search warms the scratch, no threshold may allocate — on the
// variant-enumerating branch (the hoisted combination enumerator and epoch
// table at work) or on the key-run branch past a table's crossover radius.
func TestSearchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	codes := clusteredCodes(rng, 800, 64, 10, 3)
	m, err := Build(codes, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr := core.NewSearcher(core.AsIndex(m))
	q := codes[17]
	var enumerated, walked bool
	for _, h := range []int{2, 10, 24, 40, 64} {
		if m.Radius(h) > m.enumMax[0] {
			walked = true
		} else {
			enumerated = true
		}
		sr.Search(q, h) // warm the scratch and result buffers
		if allocs := testing.AllocsPerRun(200, func() { sr.Search(q, h) }); allocs != 0 {
			t.Fatalf("h=%d: %.1f allocs per search, want 0", h, allocs)
		}
	}
	if !enumerated || !walked {
		t.Fatalf("thresholds did not cover both branches (crossover radius %d)", m.enumMax[0])
	}
}

// variants is V(w, r) = Σ_{k≤r} C(w, k), saturating at limit.
func variants(w, r, limit int) int {
	v, c := 1, 1
	for k := 1; k <= r && k <= w && v < limit; k++ {
		c = c * (w - k + 1) / k
		v += c
	}
	if v > limit {
		return limit
	}
	return v
}

// TestEveryThresholdMatchesOracle is the differential test of the bounded
// probe: over several (n, blocks, matched, distribution) shapes, built both
// ways (owning Build, aliasing FromGroups), the answer at EVERY threshold
// 0..L equals the brute oracle — which walks each table across its switch
// from enumerating variants to walking the key run. Alongside, the work
// bound that the unbounded enumeration broke by orders of magnitude: a
// query examines at most min(V(w_t, r), K_t) keys per table (plus the exact
// probe), however large the radius.
func TestEveryThresholdMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	dupHeavy := func(n, bitsLen, distinct int) []bitvec.Code {
		pool := uniformCodes(rng, distinct, bitsLen)
		out := make([]bitvec.Code, n)
		for i := range out {
			out[i] = pool[rng.Intn(distinct)].Clone()
		}
		return out
	}
	for _, shape := range []struct {
		name  string
		codes []bitvec.Code
		opts  Options
	}{
		{"clustered-32-auto", clusteredCodes(rng, 300, 32, 6, 3), Options{}},
		{"uniform-64-b4", uniformCodes(rng, 400, 64), Options{Blocks: 4}},
		{"clustered-64-b5m2", clusteredCodes(rng, 300, 64, 5, 4), Options{Blocks: 5, Matched: 2}},
		{"duplicates-64-auto", dupHeavy(500, 64, 25), Options{}},
		{"uniform-128-auto", uniformCodes(rng, 250, 128), Options{}},
		{"clustered-24-b2", clusteredCodes(rng, 2000, 24, 3, 5), Options{Blocks: 2}},
	} {
		codes, bitsLen := shape.codes, shape.codes[0].Len()
		owning, err := Build(codes, nil, shape.opts)
		if err != nil {
			t.Fatal(err)
		}
		frozen := core.Freeze(core.BuildDynamic(codes, nil, core.Options{}))
		aliasing, err := FromGroups(frozen.Groups(), shape.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Index{owning, aliasing} {
			sr := core.NewSearcher(core.AsIndex(m))
			enumerated := make([]bool, m.Tables())
			walked := make([]bool, m.Tables())
			for qi := 0; qi < 3; qi++ {
				q := codes[rng.Intn(len(codes))].Clone()
				for f := 0; f < 2*qi; f++ {
					q.FlipBit(rng.Intn(bitsLen))
				}
				for h := 0; h <= bitsLen; h++ {
					if got, want := sr.Search(q, h), oracle(codes, q, h); !equalIDs(got, want) {
						t.Fatalf("%s shared=%v h=%d: got %d ids, want %d", shape.name, m.shared, h, len(got), len(want))
					}
					bound := m.Tables()
					for tb, w := range m.widths {
						r := min(m.Radius(h), w)
						bound += variants(w, r, int(m.tabStart[tb+1]-m.tabStart[tb]))
						if r > m.enumMax[tb] {
							walked[tb] = true
						} else {
							enumerated[tb] = true
						}
					}
					if sr.Stats.NodesVisited > bound {
						t.Fatalf("%s h=%d: %d keys examined, bound %d", shape.name, h, sr.Stats.NodesVisited, bound)
					}
				}
			}
			for tb := range walked {
				if !enumerated[tb] || !walked[tb] {
					t.Fatalf("%s: table %d never crossed its switch (crossover radius %d of %d bits)",
						shape.name, tb, m.enumMax[tb], m.widths[tb])
				}
			}
		}
	}
}

// TestWideThresholdCostsAboutAScan pins MIH's worst case at serving scale by
// count, not wall-clock: at h=48 over 150k clustered 64-bit codes — three
// tables of 21-22 bits at radius 16 — the unbounded enumeration issued ~4M
// binary searches per table to find ~30k keys. Bounded, the keys examined
// plus candidates verified stay within 3x the scan's one distance per code.
func TestWideThresholdCostsAboutAScan(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	codes := clusteredCodes(rng, 150000, 64, 150, 3)
	m, err := Build(codes, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Blocks() != 3 {
		t.Fatalf("fixture is meant to sit in the 3-block regime, got %d blocks", m.Blocks())
	}
	sr := core.NewSearcher(core.AsIndex(m))
	q := codes[rng.Intn(len(codes))].Clone()
	q.FlipBit(5)
	q.FlipBit(40)
	got := sr.Search(q, 48)
	if want := oracle(codes, q, 48); !equalIDs(got, want) {
		t.Fatalf("h=48: got %d ids, want %d", len(got), len(want))
	}
	work := sr.Stats.NodesVisited + sr.Stats.DistanceComputations
	if scan := m.GroupCount(); work > 3*scan {
		t.Fatalf("h=48 cost %d keys+verifications, over 3x the %d-code scan", work, scan)
	}
}

// TestTopKThroughAdapter: the generic radius-escalating TopK must work over
// the adapted engine and agree with distances computed by hand.
func TestTopKThroughAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	codes := uniformCodes(rng, 300, 64)
	m, err := Build(codes, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr := core.NewSearcher(core.AsIndex(m))
	q := bitvec.Rand(rng, 64)
	ids, gotDists := sr.TopK(q, 10)
	if len(ids) != 10 || len(gotDists) != 10 {
		t.Fatalf("TopK returned %d ids, %d dists, want 10", len(ids), len(gotDists))
	}
	dists := make([]int, len(codes))
	for i, c := range codes {
		dists[i] = q.Distance(c)
	}
	sort.Ints(dists)
	for i := range ids {
		if gotDists[i] != dists[i] {
			t.Fatalf("TopK[%d] distance %d, want %d", i, gotDists[i], dists[i])
		}
		if d := q.Distance(codes[ids[i]]); d != gotDists[i] {
			t.Fatalf("TopK[%d] id %d is at distance %d, reported %d", i, ids[i], d, gotDists[i])
		}
	}
}

// TestSearchBatchConcurrent: the engine must serve concurrent batch searches
// through the adapter (exercised under -race by make test-race).
func TestSearchBatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := clusteredCodes(rng, 600, 64, 8, 3)
	m, err := Build(codes, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]bitvec.Code, 40)
	for i := range queries {
		queries[i] = codes[rng.Intn(len(codes))]
	}
	got, _ := core.SearchBatch(core.AsIndex(m), queries, 6, 4)
	for i, q := range queries {
		if want := oracle(codes, q, 6); !equalIDs(got[i], want) {
			t.Fatalf("query %d: batch got %d ids, want %d", i, len(got[i]), len(want))
		}
	}
}

// TestDuplicateCodesShareGroup: repeated codes collapse into one group whose
// id table carries every tuple.
func TestDuplicateCodesShareGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := bitvec.Rand(rng, 32)
	codes := []bitvec.Code{base, base.Clone(), bitvec.Rand(rng, 32), base.Clone()}
	ids := []int{10, 20, 30, 40}
	m, err := Build(codes, ids, Options{Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.GroupCount() > 3 {
		t.Fatalf("GroupCount=%d, duplicates not collapsed", m.GroupCount())
	}
	if got := sortedCopy(m.Search(base, 0)); !equalIDs(got, []int{10, 20, 40}) {
		t.Fatalf("exact search over duplicates returned %v", got)
	}
}

// TestFromGroups builds on a frozen HA-Index's leaf arena — aliasing it, so
// the engine's heap share is its key tables alone — and must agree with the
// brute oracle over the raw codes.
func TestFromGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	codes := clusteredCodes(rng, 400, 64, 6, 3)
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = i * 3
	}
	frozen := core.Freeze(core.BuildDynamic(codes, ids, core.Options{}))
	m, err := FromGroups(frozen.Groups(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != len(codes) || m.Length() != 64 || m.GroupCount() != frozen.GroupCount() {
		t.Fatalf("FromGroups: n=%d length=%d groups=%d", m.Len(), m.Length(), m.GroupCount())
	}
	if own, _ := Build(codes, ids, Options{}); m.HeapBytes() >= own.HeapBytes() || m.SizeBytes() != own.SizeBytes() {
		t.Fatalf("aliasing engine holds %d heap bytes of %d, owning one %d of %d",
			m.HeapBytes(), m.SizeBytes(), own.HeapBytes(), own.SizeBytes())
	}
	q := codes[7]
	want := make([]int, 0)
	for i, c := range codes {
		if _, ok := q.DistanceWithin(c, 5); ok {
			want = append(want, ids[i])
		}
	}
	if got := sortedCopy(m.Search(q, 5)); !equalIDs(got, want) {
		t.Fatalf("FromGroups search: got %v want %v", got, want)
	}
}

// TestBuildValidation: the constructor rejects inconsistent inputs and
// overwide keys.
func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	codes := uniformCodes(rng, 10, 128)
	if _, err := Build(nil, nil, Options{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := Build(codes, []int{1}, Options{}); err == nil {
		t.Fatal("mismatched id count accepted")
	}
	if _, err := Build(codes, nil, Options{Blocks: 1}); err == nil {
		t.Fatal("128-bit single-block key accepted (exceeds 64-bit keys)")
	}
	if _, err := Build(codes, nil, Options{Blocks: 2, Matched: 3}); err == nil {
		t.Fatal("matched > blocks accepted")
	}
	mixed := []bitvec.Code{bitvec.Rand(rng, 32), bitvec.Rand(rng, 64)}
	if _, err := Build(mixed, nil, Options{Blocks: 4}); err == nil {
		t.Fatal("mixed code lengths accepted")
	}
}

// TestAutoBlocks: the default configuration keeps key widths near log2(n)
// and always within a uint64; the block counts are pinned because serving
// shards and their measured baselines depend on them.
func TestAutoBlocks(t *testing.T) {
	for _, tc := range []struct{ length, n, want int }{
		{32, 100, 4}, {64, 1000, 6}, {64, 100000, 4}, {64, 131072, 4}, {64, 131073, 3},
		{128, 20000, 8}, {256, 500, 16}, {16, 10, 3},
	} {
		b := autoBlocks(tc.length, tc.n, 1)
		if b != tc.want {
			t.Fatalf("L=%d n=%d: auto blocks %d, pinned at %d", tc.length, tc.n, b, tc.want)
		}
		m, err := newIndex(tc.length, tc.n, Options{Blocks: b})
		if err != nil {
			t.Fatalf("L=%d n=%d: auto blocks %d rejected: %v", tc.length, tc.n, b, err)
		}
		for _, w := range m.widths {
			if w > 64 {
				t.Fatalf("L=%d n=%d blocks=%d: table width %d", tc.length, tc.n, b, w)
			}
		}
	}
}

// TestRadius: the pigeonhole probe radius matches floor(matched·h/blocks).
func TestRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := Build(uniformCodes(rng, 50, 64), nil, Options{Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for h, want := range map[int]int{0: 0, 3: 0, 4: 1, 7: 1, 8: 2, 16: 4} {
		if got := m.Radius(h); got != want {
			t.Fatalf("Radius(%d)=%d, want %d", h, got, want)
		}
	}
}

// referenceTables is the comparison-sort table build the radix sort
// replaced: every table's (key, group) pairs sorted by key, then group, and
// compacted by append. It fills a copy of m's tables from m's groups.
func referenceTables(m *Index) *Index {
	ref := *m
	ref.keys, ref.candStart = nil, nil
	ng, nt := ref.GroupCount(), len(ref.combos)
	ref.tabStart = make([]int32, nt+1)
	ref.cands = make([]int32, 0, nt*ng)
	type pair struct {
		key uint64
		gi  int32
	}
	byKey := make([]pair, ng)
	for t, combo := range ref.combos {
		ref.tabStart[t] = int32(len(ref.keys))
		for g := 0; g < ng; g++ {
			byKey[g] = pair{key: ref.comboKey(ref.grp.Codes[g*ref.nw:(g+1)*ref.nw], combo), gi: int32(g)}
		}
		slices.SortFunc(byKey, func(a, b pair) int {
			if a.key != b.key {
				return cmp.Compare(a.key, b.key)
			}
			return cmp.Compare(a.gi, b.gi)
		})
		for i := 0; i < ng; i++ {
			if i == 0 || byKey[i].key != byKey[i-1].key {
				ref.keys = append(ref.keys, byKey[i].key)
				ref.candStart = append(ref.candStart, int32(len(ref.cands)))
			}
			ref.cands = append(ref.cands, byKey[i].gi)
		}
	}
	ref.tabStart[nt] = int32(len(ref.keys))
	ref.candStart = append(ref.candStart, int32(len(ref.cands)))
	ref.setCrossovers()
	return &ref
}

// TestRadixTablesMatchComparisonSort: the radix-sorted tables are the
// comparison sort's, array for array — across code widths from one to three
// words, n from 1 to 5000, all-equal codes and a tenth duplicated, single-
// and multi-block keys ({Blocks: 2, Matched: 2} at 64 bits keys on all 64
// bits, so every radix byte is live), built owning and over a frozen arena —
// and the slabs the engine holds have no spare capacity.
func TestRadixTablesMatchComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	shapes := map[string]func(n, bitsLen int) []bitvec.Code{
		"uniform": func(n, bitsLen int) []bitvec.Code { return uniformCodes(rng, n, bitsLen) },
		"all-equal": func(n, bitsLen int) []bitvec.Code {
			c := bitvec.Rand(rng, bitsLen)
			out := make([]bitvec.Code, n)
			for i := range out {
				out[i] = c.Clone()
			}
			return out
		},
		"tenth-duplicated": func(n, bitsLen int) []bitvec.Code {
			out := uniformCodes(rng, n, bitsLen)
			for i := 0; i < n/10; i++ {
				out[rng.Intn(n)] = out[rng.Intn(n)].Clone()
			}
			return out
		},
	}
	built := 0
	for _, bitsLen := range []int{8, 33, 64, 100, 130} {
		for _, n := range []int{1, 2, 3, 257, 5000} {
			for name, shape := range shapes {
				codes := shape(n, bitsLen)
				nw := (bitsLen + 63) / 64
				rows := make([]uint64, 0, n*nw)
				for _, c := range codes {
					rows = append(rows, c.Words()...)
				}
				frozen := core.BuildFrozen(bitsLen, rows, nil, core.Options{})
				for _, opts := range []Options{{}, {Blocks: 16}, {Blocks: 4, Matched: 2}, {Blocks: 2, Matched: 2}} {
					owning, err := Build(codes, nil, opts)
					if err != nil {
						continue // a configuration these codes cannot key (too few bits, or keys over 64)
					}
					aliasing, err := FromGroups(frozen.Groups(), opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range []*Index{owning, aliasing} {
						what := fmt.Sprintf("%d-bit n=%d %s %+v shared=%v", bitsLen, n, name, opts, m.shared)
						ref := referenceTables(m)
						if !slices.Equal(m.tabStart, ref.tabStart) || !slices.Equal(m.keys, ref.keys) ||
							!slices.Equal(m.candStart, ref.candStart) || !slices.Equal(m.cands, ref.cands) ||
							!slices.Equal(m.enumMax, ref.enumMax) {
							t.Fatalf("%s: radix tables differ from the comparison sort's", what)
						}
						if cap(m.keys) != len(m.keys) || cap(m.candStart) != len(m.candStart) || cap(m.cands) != len(m.cands) {
							t.Fatalf("%s: keys %d/%d, candStart %d/%d, cands %d/%d (len/cap)", what,
								len(m.keys), cap(m.keys), len(m.candStart), cap(m.candStart), len(m.cands), cap(m.cands))
						}
						built++
					}
				}
			}
		}
	}
	if built < 150 {
		t.Fatalf("only %d configurations built", built)
	}
}

// startupShard is the benchmark's shard shape: 150k clustered 64-bit codes
// (clusters of 1000, 3 flips), Gray-sorted into one frozen HA-Index.
func startupShard() *core.FrozenIndex {
	codes := clusteredCodes(rand.New(rand.NewSource(1)), 150000, 64, 150, 3)
	rows := make([]uint64, 0, len(codes))
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	return core.BuildFrozen(64, rows, nil, core.Options{})
}

// BenchmarkFromGroups is what a default haserve pays for MIH at start-up:
// the key tables over a shard's mapped leaf arena.
func BenchmarkFromGroups(b *testing.B) {
	view := startupShard().Groups()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromGroups(view, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSizeBytes grows with the dataset; sanity for the bench size row.
func TestSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small, err := Build(uniformCodes(rng, 100, 64), nil, Options{Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Build(uniformCodes(rng, 2000, 64), nil, Options{Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if small.SizeBytes() <= 0 || large.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("SizeBytes: small=%d large=%d", small.SizeBytes(), large.SizeBytes())
	}
}
