package mih

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/gray"
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
// code distributions, and several block configurations. Run under -race by
// make test-race.
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
			for _, opts := range []Options{{}, {Blocks: 4}, {Blocks: 5}} {
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

// TestTightSplitMatchesOracle is the exactness property test of the tight
// pigeonhole split: at every block count 1–16 a code width allows, over 33-,
// 64-, 100- and 150-bit codes, uniform and clustered, the answer at every
// threshold 0..L equals the brute oracle's. The thresholds below m−1 leave
// tables unsearched, and the per-query choice meets ties in bucket sizes —
// both are counted, so a shape that stopped reaching them fails.
func TestTightSplitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var skipped, ties int
	for _, bitsLen := range []int{33, 64, 100, 150} {
		for _, clustered := range []bool{false, true} {
			codes := uniformCodes(rng, 120, bitsLen)
			if clustered {
				codes = clusteredCodes(rng, 120, bitsLen, 4, 3)
			}
			queries := []bitvec.Code{bitvec.Rand(rng, bitsLen)}
			for f := 0; f < 3; f++ {
				q := codes[rng.Intn(len(codes))].Clone()
				for i := 0; i < f; i++ {
					q.FlipBit(rng.Intn(bitsLen))
				}
				queries = append(queries, q)
			}
			for blocks := 1; blocks <= 16; blocks++ {
				m, err := Build(codes, nil, Options{Blocks: blocks})
				if err != nil {
					continue // keys over 64 bits
				}
				sc := m.NewScratch().(*Scratch)
				for _, q := range queries {
					for h := 0; h <= bitsLen; h++ {
						var stats core.SearchStats
						var got []int
						for _, g := range sc.Search(q, h, &stats, nil) {
							got = append(got, m.grp.IDs[m.grp.IDStart[g]:m.grp.IDStart[g+1]]...)
						}
						if want := oracle(codes, q, h); !equalIDs(got, want) {
							t.Fatalf("%d-bit clustered=%v blocks=%d h=%d: got %d ids, want %d", bitsLen, clustered, blocks, h, len(got), len(want))
						}
						if h < blocks-1 {
							skipped++
						}
						if _, a := split(h, blocks); a > 0 {
							sizes := slices.Clone(sc.size)
							slices.Sort(sizes)
							if sizes[a-1] == sizes[a] {
								ties++
							}
						}
					}
				}
			}
		}
	}
	if skipped == 0 || ties == 0 {
		t.Fatalf("%d selects left tables unsearched, %d met a tie at the split", skipped, ties)
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
		// Every table's radius is r−1 or r: table 0 walks when even r−1 is
		// past its crossover, and enumerates when r is not.
		r, _ := split(h, m.Blocks())
		walked = walked || r-1 > m.enumMax[0]
		enumerated = enumerated || r <= m.enumMax[0]
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
// probe: over several (n, blocks, distribution) shapes, built both ways
// (owning Build, aliasing FromGroups), the answer at EVERY threshold 0..L
// equals the brute oracle — which walks each table across its switch from
// enumerating variants to walking the key run. Alongside, the work bound
// that the unbounded enumeration broke by orders of magnitude: a query
// examines at most min(V(w_t, ⌊h/m⌋), K_t) keys per table (plus the exact
// lookup), however large the radius.
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
		{"clustered-64-b5", clusteredCodes(rng, 300, 64, 5, 4), Options{Blocks: 5}},
		{"duplicates-64-auto", dupHeavy(500, 64, 25), Options{}},
		{"uniform-128-auto", uniformCodes(rng, 250, 128), Options{}},
		{"clustered-24-b2", clusteredCodes(rng, 2000, 24, 3, 5), Options{Blocks: 2}},
	} {
		codes, bitsLen := shape.codes, shape.codes[0].Len()
		owning, err := Build(codes, nil, shape.opts)
		if err != nil {
			t.Fatal(err)
		}
		frozen := buildFrozen(codes, nil)
		aliasing, err := FromGroups(frozen.Groups(), shape.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Index{owning, aliasing} {
			sr := core.NewSearcher(core.AsIndex(m))
			nt := m.Blocks()
			enumerated := make([]bool, nt)
			walked := make([]bool, nt)
			for qi := 0; qi < 3; qi++ {
				q := codes[rng.Intn(len(codes))].Clone()
				for f := 0; f < 2*qi; f++ {
					q.FlipBit(rng.Intn(bitsLen))
				}
				for h := 0; h <= bitsLen; h++ {
					if got, want := sr.Search(q, h), oracle(codes, q, h); !equalIDs(got, want) {
						t.Fatalf("%s shared=%v h=%d: got %d ids, want %d", shape.name, m.shared, h, len(got), len(want))
					}
					bound := nt
					r, _ := split(h, nt)
					for tb, b := range m.bounds {
						w := b[1]
						bound += variants(w, min(h/nt, w), int(m.tabStart[tb+1]-m.tabStart[tb]))
						walked[tb] = walked[tb] || min(r-1, w) > m.enumMax[tb]
						enumerated[tb] = enumerated[tb] || r <= m.enumMax[tb]
					}
					if sr.Stats.NodesVisited > bound {
						t.Fatalf("%s h=%d: %d keys examined, bound %d", shape.name, h, sr.Stats.NodesVisited, bound)
					}
				}
			}
			for tb := range walked {
				if !enumerated[tb] || !walked[tb] {
					t.Fatalf("%s: table %d never crossed its switch (crossover radius %d of %d bits)",
						shape.name, tb, m.enumMax[tb], m.bounds[tb][1])
				}
			}
		}
	}
}

// TestWideThresholdCostsAboutAScan pins MIH's worst case at serving scale by
// count, not wall-clock: at h=48 over 150k clustered 64-bit codes — four
// tables of 16 bits at radii 11–12 — an unbounded enumeration would make
// 63–65k probes per table to find far fewer keys. Bounded, the keys examined
// plus candidates verified stay within 3x the scan's one distance per code.
func TestWideThresholdCostsAboutAScan(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	codes := clusteredCodes(rng, 150000, 64, 150, 3)
	m, err := Build(codes, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Blocks() != 4 {
		t.Fatalf("fixture is meant to sit in the 4-block regime, got %d blocks", m.Blocks())
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
	frozen := buildFrozen(codes, ids)
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

// TestBuildValidation: the constructor rejects inconsistent inputs, overwide
// keys and more blocks than bits.
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
	if _, err := Build(codes, nil, Options{Blocks: 129}); err == nil {
		t.Fatal("129 blocks of 128-bit codes accepted")
	}
	mixed := []bitvec.Code{bitvec.Rand(rng, 32), bitvec.Rand(rng, 64)}
	if _, err := Build(mixed, nil, Options{Blocks: 4}); err == nil {
		t.Fatal("mixed code lengths accepted")
	}
}

// TestAutoBlocks: the default configuration keeps key widths at ⌈log₂ n⌉
// bits, rounded to whole blocks, and always within a uint64; the block
// counts are pinned because serving shards and their measured baselines
// depend on them (64-bit codes: 4 blocks of 16 bits from 16,385 to 262,144
// codes, which holds the benchmark's 147k-group shards).
func TestAutoBlocks(t *testing.T) {
	for _, tc := range []struct{ length, n, want int }{
		{32, 100, 5}, {64, 1000, 6}, {64, 16384, 5}, {64, 16385, 4}, {64, 100000, 4},
		{64, 131072, 4}, {64, 131073, 4}, {64, 262144, 4}, {64, 262145, 3},
		{128, 20000, 9}, {256, 500, 16}, {16, 10, 4}, {100, 1, 16}, {1, 0, 1},
	} {
		b := autoBlocks(tc.length, tc.n)
		if b != tc.want {
			t.Fatalf("L=%d n=%d: auto blocks %d, pinned at %d", tc.length, tc.n, b, tc.want)
		}
		m, err := newIndex(tc.length, tc.n, Options{Blocks: b})
		if err != nil {
			t.Fatalf("L=%d n=%d: auto blocks %d rejected: %v", tc.length, tc.n, b, err)
		}
		for _, bd := range m.bounds {
			if bd[1] > 64 {
				t.Fatalf("L=%d n=%d blocks=%d: key width %d", tc.length, tc.n, b, bd[1])
			}
		}
	}
}

// TestRadius: the tight pigeonhole split. At every block count 1–16 and
// threshold 0–80, over bucket sizes with and without ties, the radii sum to
// h−m+1, none exceeds ⌊h/m⌋ or falls below ⌊(h+1)/m⌋−1, and the larger
// radius goes to the smallest buckets, ties to the lower table.
func TestRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for nt := 1; nt <= 16; nt++ {
		for h := 0; h <= 80; h++ {
			size := make([]int32, nt)
			for i := range size {
				size[i] = int32(rng.Intn(1 + h%4)) // h%4 == 0: every bucket ties
			}
			rad := make([]int, nt)
			assignRadii(rad, size, h)
			sum, lo := 0, (h+1)/nt-1
			for tb, r := range rad {
				sum += r
				if r > h/nt || r < lo || r > lo+1 {
					t.Fatalf("m=%d h=%d: table %d radius %d, want %d or %d and at most %d", nt, h, tb, r, lo, lo+1, h/nt)
				}
				for u, ru := range rad {
					if r > ru && (size[tb] > size[u] || size[tb] == size[u] && tb > u) {
						t.Fatalf("m=%d h=%d sizes %v: radii %v favour table %d over %d", nt, h, size, rad, tb, u)
					}
				}
			}
			if sum != h-nt+1 {
				t.Fatalf("m=%d h=%d: radii %v sum to %d, want %d", nt, h, rad, sum, h-nt+1)
			}
		}
	}
}

// referenceTables is the comparison-sort table build the radix sort
// replaced: every table's (key, group) pairs sorted by key, then group, and
// compacted by append. It fills a copy of m's tables from m's groups.
func referenceTables(m *Index) *Index {
	ref := *m
	ref.keys, ref.candStart = nil, nil
	ng, nt := ref.GroupCount(), len(ref.bounds)
	ref.tabStart = make([]int32, nt+1)
	ref.cands = make([]int32, 0, nt*ng)
	type pair struct {
		key uint64
		gi  int32
	}
	byKey := make([]pair, ng)
	for t, bd := range ref.bounds {
		ref.tabStart[t] = int32(len(ref.keys))
		for g := 0; g < ng; g++ {
			byKey[g] = pair{key: segKey(ref.grp.Codes[g*ref.nw:(g+1)*ref.nw], bd[0], bd[1]), gi: int32(g)}
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
	// Each directory by its definition: 2^⌊log₂ K⌋ buckets (one when the
	// table is empty), bucket d starting at the first key whose top bits
	// are at least d, found by a search over the whole run.
	ref.dir, ref.dirStart = nil, []int32{0}
	for t, bd := range ref.bounds {
		w, lo, hi := bd[1], int(ref.tabStart[t]), int(ref.tabStart[t+1])
		b := 0
		for 2<<b <= hi-lo {
			b++
		}
		shift := uint(w - b)
		for d := 0; d <= 1<<b; d++ {
			at := lo + sort.Search(hi-lo, func(i int) bool { return ref.keys[lo+i]>>shift >= uint64(d) })
			ref.dir = append(ref.dir, int32(at))
		}
		ref.dirStart = append(ref.dirStart, int32(len(ref.dir)))
	}
	return &ref
}

// TestRadixTablesMatchComparisonSort: the counted and the radix-sorted
// tables are the comparison sort's, array for array — across code widths
// from one to three words, n from 1 to 5000, all-equal codes and a tenth
// duplicated, keys from 4 to 64 bits wide ({Blocks: 1} at 64 bits keys on
// all 64, so every radix byte is live), built owning and over a frozen
// arena, both builds many times over — and the slabs the engine holds have
// no spare capacity.
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
	built, counted := 0, 0
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
				for _, opts := range []Options{{}, {Blocks: 16}, {Blocks: 2}, {Blocks: 1}} {
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
						if !slices.Equal(m.dir, ref.dir) || !slices.Equal(m.dirStart, ref.dirStart) {
							t.Fatalf("%s: directories differ from their definition", what)
						}
						if len(m.dir) > len(m.keys)+2*m.Blocks() {
							t.Fatalf("%s: %d directory entries for %d keys in %d tables", what, len(m.dir), len(m.keys), m.Blocks())
						}
						if cap(m.keys) != len(m.keys) || cap(m.candStart) != len(m.candStart) || cap(m.cands) != len(m.cands) ||
							cap(m.dir) != len(m.dir) || cap(m.dirStart) != len(m.dirStart) {
							t.Fatalf("%s: keys %d/%d, candStart %d/%d, cands %d/%d, dir %d/%d (len/cap)", what,
								len(m.keys), cap(m.keys), len(m.candStart), cap(m.candStart), len(m.cands), cap(m.cands),
								len(m.dir), cap(m.dir))
						}
						built++
						if w := m.bounds[0][1]; w <= 16 && 1<<w <= 4*m.GroupCount() {
							counted++
						}
					}
				}
			}
		}
	}
	if built < 150 || counted < 50 || built-counted < 50 {
		t.Fatalf("%d configurations built, %d of them counted", built, counted)
	}
}

// TestDirectoryProbesMatchTheRun: a probe through a table's directory finds
// exactly what a binary search over the table's whole key run finds, for
// every key present and for absent ones — its neighbours, 0 and 2^w−1, and
// every key of a table narrow enough to enumerate. The shapes cover a single
// key (K = 1), all keys equal, keys 0 and 2^w−1 stored, and 8-bit codes in 3
// blocks, whose tables hold every key of their width (b = w, shift 0).
func TestDirectoryProbesMatchTheRun(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	fill := func(bitsLen int, bit bool) bitvec.Code {
		c := bitvec.New(bitsLen)
		for i := 0; i < bitsLen; i++ {
			c.SetBit(i, bit)
		}
		return c
	}
	every8 := make([]bitvec.Code, 256)
	for v := range every8 {
		every8[v] = bitvec.New(8)
		for i := 0; i < 8; i++ {
			every8[v].SetBit(i, v>>i&1 == 1)
		}
	}
	for _, shape := range []struct {
		name  string
		codes []bitvec.Code
		opts  Options
	}{
		{"one-code", uniformCodes(rng, 1, 64), Options{}},
		{"all-equal", clusteredCodes(rng, 50, 64, 1, 0), Options{Blocks: 4}},
		{"extremes", append(uniformCodes(rng, 300, 32), fill(32, false), fill(32, true)), Options{Blocks: 2}},
		{"every-8-bit-3-blocks", every8, Options{Blocks: 3}},
		{"narrow-8-bit-3-blocks", uniformCodes(rng, 40, 8), Options{Blocks: 3}},
		{"clustered-64", clusteredCodes(rng, 5000, 64, 5, 3), Options{}},
		{"32-bit-keys", uniformCodes(rng, 2000, 64), Options{Blocks: 2}},
		{"130-bit", uniformCodes(rng, 700, 130), Options{}},
	} {
		m, err := Build(shape.codes, nil, shape.opts)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		probes := 0
		for tb, bd := range m.bounds {
			w, lo, hi := bd[1], int(m.tabStart[tb]), int(m.tabStart[tb+1])
			run := m.keys[lo:hi]
			dir, shift := m.directory(tb)
			mask := ^uint64(0) >> (64 - w)
			check := func(key uint64) {
				key &= mask
				i, found := sort.Find(len(run), func(i int) int { return cmp.Compare(key, run[i]) })
				p, ok := m.lookup(dir, shift, key)
				if ok != found || (ok && int(p) != lo+i) {
					t.Fatalf("%s table %d (%d bits, %d keys): key %#x probes to (%d, %v), the run has (%d, %v)",
						shape.name, tb, w, len(run), key, p, ok, lo+i, found)
				}
				probes++
			}
			for _, k := range run {
				check(k)
				check(k + 1)
				check(k - 1)
			}
			check(0)
			check(mask)
			if w <= 12 {
				for k := uint64(0); k <= mask; k++ {
					check(k)
				}
			}
		}
		if probes == 0 {
			t.Fatalf("%s: nothing probed", shape.name)
		}
	}
}

// bruteWork is what a MIH select must cost by definition: one exact-key
// lookup per table, and with h+1 = m·r + a the a tables with the fewest
// groups under the query's key (ties to the lower table) at radius r, the
// rest at r−1; then per table at radius 1 or more the other key variants
// within its radius (its whole run past its crossover), and one verification
// per group whose key in some table lies within that table's radius of the
// query's.
func bruteWork(m *Index, q bitvec.Code, h int) (probes, verified int) {
	qw, nt := q.Words(), m.Blocks()
	key := func(words []uint64, tb int) uint64 { return segKey(words, m.bounds[tb][0], m.bounds[tb][1]) }
	size := make([]int, nt)
	for g := 0; g < m.GroupCount(); g++ {
		for tb := range size {
			if key(m.grp.Codes[g*m.nw:(g+1)*m.nw], tb) == key(qw, tb) {
				size[tb]++
			}
		}
	}
	order := make([]int, nt)
	for tb := range order {
		order[tb] = tb
	}
	sort.SliceStable(order, func(i, j int) bool { return size[order[i]] < size[order[j]] })
	rad := make([]int, nt)
	for i, tb := range order {
		rad[tb] = (h+1)/nt - 1
		if i < (h+1)%nt {
			rad[tb]++
		}
	}
	probes = nt
	for tb, bd := range m.bounds {
		w, rt := bd[1], min(rad[tb], bd[1])
		if k := int(m.tabStart[tb+1] - m.tabStart[tb]); rt > m.enumMax[tb] {
			probes += k
		} else if rt > 0 {
			probes += variants(w, rt, 1<<62) - 1
		}
	}
	for g := 0; g < m.GroupCount(); g++ {
		cw := m.grp.Codes[g*m.nw : (g+1)*m.nw]
		for tb := range m.bounds {
			if bits.OnesCount64(key(cw, tb)^key(qw, tb)) <= rad[tb] {
				verified++
				break
			}
		}
	}
	return probes, verified
}

// TestEnginePathMatchesOracle drives the adapted engine through every result
// path core offers — Search, SearchAppend onto a non-empty dst, SearchCodes,
// SearchBatch and TopK — at 8 to 130 bits and every third threshold, against
// the brute oracle; the work each select reports is what bruteWork says it
// must be, so a probe that misses or double-counts a key fails here too, and
// its keys examined are the closed form Probes gives the planner — exactly
// where the larger radius costs every table the same, at most elsewhere.
func TestEnginePathMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, bitsLen := range []int{8, 33, 64, 100, 130} {
		codes := clusteredCodes(rng, 600, bitsLen, 6, 2)
		codes = append(codes, codes[:40]...) // duplicates share a group
		ids := rng.Perm(len(codes))
		m, err := Build(codes, ids, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx := core.AsIndex(m)
		sr := core.NewSearcher(idx)
		queries := make([]bitvec.Code, 12)
		for i := range queries {
			queries[i] = codes[rng.Intn(len(codes))].Clone()
			for f := 0; f < i%4; f++ {
				queries[i].FlipBit(rng.Intn(bitsLen))
			}
		}
		for h := 0; h <= bitsLen; h += 3 {
			batch, batchStats := core.SearchBatch(idx, queries, h, 3)
			var sum core.SearchStats
			for qi, q := range queries {
				what := fmt.Sprintf("%d-bit h=%d query %d", bitsLen, h, qi)
				var want []int
				wantCodes := map[string]bool{}
				for i, c := range codes {
					if _, ok := q.DistanceWithin(c, h); ok {
						want = append(want, ids[i])
						wantCodes[c.Key()] = true
					}
				}
				got := slices.Clone(sr.Search(q, h))
				if !equalIDs(got, want) {
					t.Fatalf("%s: Search %d ids, want %d", what, len(got), len(want))
				}
				stats := sr.Stats
				if p, v := bruteWork(m, q, h); stats.NodesVisited != p || stats.DistanceComputations != v || stats.LeavesChecked != v {
					t.Fatalf("%s: %+v, want %d probes and %d verifications", what, stats, p, v)
				}
				if p := m.Probes(h); stats.NodesVisited > p || stats.NodesVisited != p && sameGain(m, h) {
					t.Fatalf("%s: %d keys examined, Probes says %d", what, stats.NodesVisited, p)
				}
				sum.Add(stats)
				dst := sr.SearchAppend([]int{-1, -2}, q, h)
				if !slices.Equal(dst[:2], []int{-1, -2}) || !slices.Equal(dst[2:], got) || sr.Stats != stats {
					t.Fatalf("%s: SearchAppend onto a non-empty dst gave %d ids, %+v", what, len(dst), sr.Stats)
				}
				if !slices.Equal(batch[qi], got) {
					t.Fatalf("%s: SearchBatch %d ids, Search %d", what, len(batch[qi]), len(got))
				}
				seen := map[string]bool{}
				for _, c := range sr.SearchCodes(q, h) {
					if !wantCodes[c.Key()] || seen[c.Key()] {
						t.Fatalf("%s: SearchCodes returned %s, stray or repeated", what, c)
					}
					seen[c.Key()] = true
				}
				if len(seen) != len(wantCodes) || sr.Stats != stats {
					t.Fatalf("%s: SearchCodes %d codes, want %d; %+v", what, len(seen), len(wantCodes), sr.Stats)
				}
			}
			if batchStats != sum {
				t.Fatalf("%d-bit h=%d: SearchBatch stats %+v, per-query sum %+v", bitsLen, h, batchStats, sum)
			}
		}
		for _, q := range queries[:3] {
			type pair struct{ d, id int }
			all := make([]pair, len(codes))
			for i, c := range codes {
				all[i] = pair{q.Distance(c), ids[i]}
			}
			slices.SortFunc(all, func(a, b pair) int { return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.id, b.id)) })
			gotIDs, gotDists := sr.TopK(q, 25)
			for i := range all[:25] {
				if gotIDs[i] != all[i].id || gotDists[i] != all[i].d {
					t.Fatalf("%d-bit TopK[%d] = (%d at %d), want (%d at %d)", bitsLen, i, gotIDs[i], gotDists[i], all[i].id, all[i].d)
				}
			}
		}
	}
}

// sameGain reports whether the split's larger radius costs every table of m
// the same number of probes at threshold h, so that which tables a query
// gives it to cannot change what the select examines.
func sameGain(m *Index, h int) bool {
	r, _ := split(h, m.Blocks())
	gain := m.tableProbes(0, r) - m.tableProbes(0, r-1)
	for tb := range m.bounds {
		if m.tableProbes(tb, r)-m.tableProbes(tb, r-1) != gain {
			return false
		}
	}
	return true
}

// buildFrozen is core.BuildFrozen over codes and their ids, which it leaves
// as they are.
func buildFrozen(codes []bitvec.Code, ids []int) *core.FrozenIndex {
	rows := make([]uint64, 0, len(codes)*len(codes[0].Words()))
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	return core.BuildFrozen(codes[0].Len(), rows, slices.Clone(ids), core.Options{})
}

// startupShard is the benchmark's shard shape: 150k clustered 64-bit codes
// (clusters of 1000, 3 flips), Gray-sorted into one frozen HA-Index.
func startupShard() *core.FrozenIndex {
	return buildFrozen(clusteredCodes(rand.New(rand.NewSource(1)), 150000, 64, 150, 3), nil)
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

// wideShard is the serving shape the wide workload searches: 300k clustered
// 64-bit codes (clusters of 1000, 3 flips), the first Gray half of them as
// one frozen HA-Index with MIH on its leaf arena, and 2,048 queries that are
// stored codes of either half with 2 bits flipped.
func wideShard() (*Index, []bitvec.Code) {
	rng := rand.New(rand.NewSource(1))
	codes := clusteredCodes(rng, 300000, 64, 300, 3)
	queries := make([]bitvec.Code, 2048)
	for i := range queries {
		queries[i] = codes[rng.Intn(len(codes))].Clone()
		queries[i].FlipBit(rng.Intn(64))
		queries[i].FlipBit(rng.Intn(64))
	}
	gray.Sort(codes, nil)
	rows := make([]uint64, 0, len(codes)/2)
	for _, c := range codes[:len(codes)/2] {
		rows = append(rows, c.Words()...)
	}
	m, err := FromGroups(core.BuildFrozen(64, rows, nil, core.Options{}).Groups(), Options{})
	if err != nil {
		panic(err)
	}
	return m, queries
}

// BenchmarkMIHSearch is the select a planner-routed wide request runs on one
// shard, at the point workload's h=2, the h=3 of churn and mrjoin, the wide
// workload's h=8, and h=10, inside the range MIH now wins on this shape: one
// Searcher, the ids appended to a reused slab as the server does, with the
// probes and verifications a query costs.
func BenchmarkMIHSearch(b *testing.B) {
	m, queries := wideShard()
	for _, h := range []int{2, 3, 8, 10} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			sr := core.NewSearcher(core.AsIndex(m))
			var ids []int
			var work core.SearchStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids = sr.SearchAppend(ids[:0], queries[i%len(queries)], h)
				work.Add(sr.Stats)
			}
			b.ReportMetric(float64(work.NodesVisited)/float64(b.N), "probes/op")
			b.ReportMetric(float64(work.DistanceComputations)/float64(b.N), "verifications/op")
		})
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
	// The directories are counted on both sides, and nothing else is new:
	// an aliasing engine's heap is exactly its tables and directories.
	frozen := buildFrozen(uniformCodes(rng, 2000, 64), nil)
	m, err := FromGroups(frozen.Groups(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables := 8*len(m.keys) + 4*(len(m.tabStart)+len(m.candStart)+len(m.cands))
	if dir := 4 * (len(m.dir) + len(m.dirStart)); m.dirBytes() != dir || dir == 0 ||
		m.SizeBytes() != frozen.Groups().SizeBytes()+tables+dir || m.HeapBytes() != tables+dir {
		t.Fatalf("SizeBytes %d, HeapBytes %d: view %d, tables %d, directories %d",
			m.SizeBytes(), m.HeapBytes(), frozen.Groups().SizeBytes(), tables, dir)
	}
}
