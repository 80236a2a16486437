package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"haindex/internal/bitvec"
)

// searcherEnv builds the three index forms over one clustered dataset plus a
// mixed query set (dataset members and random outsiders): the paper's
// Dynamic and Static HA-Index and the frozen arena.
func searcherEnv(t testing.TB, seed int64, n, bitsLen, h int) ([]bitvec.Code, []bitvec.Code, []any) {
	rng := rand.New(rand.NewSource(seed))
	codes := clusteredCodes(rng, n, bitsLen, 12, 3)
	queries := make([]bitvec.Code, 48)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = bitvec.Rand(rng, bitsLen)
		} else {
			queries[i] = codes[rng.Intn(len(codes))]
		}
	}
	return codes, queries, []any{
		BuildDynamic(codes, nil, Options{}),
		BuildStatic(codes, nil, 8),
		Freeze(BuildDynamic(codes, nil, Options{})),
	}
}

// querier is the surface the arena Searcher and the PointerSearcher share,
// so one test body covers every index form.
type querier interface {
	Search(q bitvec.Code, h int) []int
	SearchAppend(dst []int, q bitvec.Code, h int) []int
}

// newQuerier returns the searcher each form runs on: the arena Searcher for
// an Engine, the PointerSearcher for the Static and Dynamic forms.
func newQuerier(idx any) querier {
	if x, ok := idx.(Engine); ok {
		return NewSearcher(x)
	}
	return NewPointerSearcher(idx.(pointerIndex))
}

// arenaIndexes returns the arena engines SearchBatch serves: the frozen walk
// (a Gray block at a time) and the brute scan over the same arena (one query
// at a time).
func arenaIndexes(codes []bitvec.Code) []Engine {
	f := Freeze(BuildDynamic(codes, nil, Options{}))
	return []Engine{f, f.Groups()}
}

// TestSearcherMatchesOracle: a reused searcher answers every query exactly,
// on every index form, across code widths spanning one word and several.
func TestSearcherMatchesOracle(t *testing.T) {
	for _, bitsLen := range []int{32, 64, 100, 150} {
		codes, queries, indexes := searcherEnv(t, int64(200+bitsLen), 1200, bitsLen, 0)
		for _, idx := range indexes {
			sr := newQuerier(idx)
			for h := 0; h <= 5; h++ {
				for qi, q := range queries {
					want := oracle(codes, q, h)
					if got := sr.Search(q, h); !equalIDs(got, want) {
						t.Fatalf("L=%d %T h=%d q#%d: got %d ids, want %d", bitsLen, idx, h, qi, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestSearcherCodes: SearchCodes returns the distinct qualifying codes, on
// every arena engine.
func TestSearcherCodes(t *testing.T) {
	codes, queries, _ := searcherEnv(t, 77, 800, 48, 0)
	for _, idx := range arenaIndexes(codes) {
		sr := NewSearcher(idx)
		for _, q := range queries {
			distinct := map[string]bool{}
			for _, i := range oracle(codes, q, 3) {
				distinct[codes[i].Key()] = true
			}
			got := sr.SearchCodes(q, 3)
			if len(got) != len(distinct) {
				t.Fatalf("%T: %d distinct codes, want %d", idx, len(got), len(distinct))
			}
			for _, c := range got {
				if !distinct[c.Key()] {
					t.Fatalf("%T: code %s not a qualifying code", idx, c)
				}
			}
		}
	}
}

// TestSearcherZeroAlloc: steady-state Search performs zero heap
// allocations, for single-word and multi-word codes on every index form.
func TestSearcherZeroAlloc(t *testing.T) {
	for _, bitsLen := range []int{32, 128} {
		_, queries, indexes := searcherEnv(t, int64(300+bitsLen), 1500, bitsLen, 0)
		for _, idx := range indexes {
			sr := newQuerier(idx)
			// Warm the scratch to its high-water mark.
			for r := 0; r < 3; r++ {
				for _, q := range queries {
					sr.Search(q, 3)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				sr.Search(queries[i%len(queries)], 3)
				i++
			})
			if allocs != 0 {
				t.Errorf("L=%d %T: %.1f allocs/op in steady state, want 0", bitsLen, idx, allocs)
			}
		}
	}
}

// TestStaticLookupAssembledZeroAlloc pins the multi-word byCode lookup: the
// static walk's assembled-key probe must resolve exact hits correctly and
// allocation-free on both its variants — the stack buffer (codes ≤ 256 bits)
// and the reused scratch buffer (wider codes).
func TestStaticLookupAssembledZeroAlloc(t *testing.T) {
	for _, bitsLen := range []int{128, 320} {
		rng := rand.New(rand.NewSource(int64(400 + bitsLen)))
		codes := clusteredCodes(rng, 400, bitsLen, 6, 3)
		idx := BuildStatic(codes, nil, 8)
		sr := NewPointerSearcher(idx)
		for qi, q := range codes[:50] {
			if got, want := sr.Search(q, 0), oracle(codes, q, 0); !equalIDs(got, want) {
				t.Fatalf("L=%d q#%d: exact lookup got %d ids, want %d", bitsLen, qi, len(got), len(want))
			}
		}
		for r := 0; r < 3; r++ {
			for _, q := range codes[:50] {
				sr.Search(q, 2)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			sr.Search(codes[i%50], 2)
			i++
		})
		if allocs != 0 {
			t.Errorf("L=%d: %.1f allocs/op through the assembled-key lookup, want 0", bitsLen, allocs)
		}
	}
}

// TestSearcherZeroAllocLooseThreshold drives the static walk into its budget
// fallback (exact scan) and checks that path is allocation-free too.
func TestSearcherZeroAllocLooseThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	codes := make([]bitvec.Code, 500)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, 64)
	}
	idx := BuildStatic(codes, nil, 8)
	q := bitvec.Rand(rng, 64)
	sr := NewPointerSearcher(idx)
	for r := 0; r < 3; r++ {
		sr.Search(q, 40)
	}
	if allocs := testing.AllocsPerRun(100, func() { sr.Search(q, 40) }); allocs != 0 {
		t.Errorf("fallback scan: %.1f allocs/op, want 0", allocs)
	}
}

// TestSearchBatchMatchesSerial: SearchBatch returns per-query results
// identical to serial searches, for several worker counts, and aggregates
// the same total work, over the frozen walk and the scan.
func TestSearchBatchMatchesSerial(t *testing.T) {
	codes, queries, _ := searcherEnv(t, 41, 2000, 32, 0)
	for _, idx := range arenaIndexes(codes) {
		for _, workers := range []int{0, 1, 2, 4, 7} {
			results, stats := SearchBatch(idx, queries, 3, workers)
			if len(results) != len(queries) {
				t.Fatalf("%T workers=%d: %d results for %d queries", idx, workers, len(results), len(queries))
			}
			if stats.DistanceComputations == 0 {
				t.Fatalf("%T workers=%d: batch stats empty", idx, workers)
			}
			for i, q := range queries {
				if want := oracle(codes, q, 3); !equalIDs(results[i], want) {
					t.Fatalf("%T workers=%d q#%d: got %v want %v", idx, workers, i, results[i], want)
				}
			}
		}
	}
}

// TestScanEngineStats: the brute scan checks every group once, so a search
// through a Searcher reports DistanceComputations = LeavesChecked = the
// arena's group count, and SearchBatch that per query. The clustered codes
// repeat, so the count is of groups, not tuples.
func TestScanEngineStats(t *testing.T) {
	codes := clusteredCodes(rand.New(rand.NewSource(43)), 1500, 12, 10, 2)
	v := Freeze(BuildDynamic(codes, nil, Options{})).Groups()
	ng := v.Count()
	if ng == len(codes) {
		t.Fatalf("%d groups for %d codes: the arena must hold duplicates", ng, len(codes))
	}
	sr := NewSearcher(v)
	queries := codes[:9]
	for h := 0; h <= 3; h++ {
		for _, q := range queries {
			sr.Search(q, h)
			if st := sr.Stats; st.DistanceComputations != ng || st.LeavesChecked != ng || st.NodesVisited != 0 {
				t.Fatalf("h=%d: search stats %+v, want %d groups checked", h, st, ng)
			}
		}
		for _, workers := range []int{1, 2} {
			_, st := SearchBatch(v, queries, h, workers)
			if want := ng * len(queries); st.DistanceComputations != want || st.LeavesChecked != want || st.NodesVisited != 0 {
				t.Fatalf("h=%d workers=%d: batch stats %+v, want %d groups checked", h, workers, st, want)
			}
		}
	}
}

// TestSearchCodesBatch: the leafless batch variant agrees with per-query
// SearchCodes.
func TestSearchCodesBatch(t *testing.T) {
	codes, queries, _ := searcherEnv(t, 43, 1000, 32, 0)
	for _, idx := range arenaIndexes(codes) {
		serial := NewSearcher(idx)
		results, _ := SearchCodesBatch(idx, queries, 3, 4)
		for i, q := range queries {
			want := serial.SearchCodes(q, 3)
			if len(results[i]) != len(want) {
				t.Fatalf("%T q#%d: %d codes, want %d", idx, i, len(results[i]), len(want))
			}
			seen := map[string]bool{}
			for _, c := range want {
				seen[c.Key()] = true
			}
			for _, c := range results[i] {
				if !seen[c.Key()] {
					t.Fatalf("%T q#%d: unexpected code %s", idx, i, c)
				}
			}
		}
	}
}

// TestSearchIntoAccumulates: SearchInto adds its work to the caller's stats
// on both pointer forms, so the stats of two calls into one total equal the
// sum of the two calls' separate stats, which are a PointerSearcher's.
func TestSearchIntoAccumulates(t *testing.T) {
	codes, queries, _ := searcherEnv(t, 61, 800, 32, 0)
	type searchInto interface {
		pointerIndex
		SearchInto(q bitvec.Code, h int, stats *SearchStats) []int
	}
	for _, idx := range []searchInto{BuildDynamic(codes, nil, Options{}), BuildStatic(codes, nil, 8)} {
		sr := NewPointerSearcher(idx)
		for i := 0; i+1 < len(queries); i += 2 {
			q0, q1 := queries[i], queries[i+1]
			var a, b, total SearchStats
			idx.SearchInto(q0, 3, &a)
			idx.SearchInto(q1, 3, &b)
			idx.SearchInto(q0, 3, &total)
			idx.SearchInto(q1, 3, &total)
			want := a
			want.Add(b)
			if total != want || a.DistanceComputations == 0 || b.DistanceComputations == 0 {
				t.Fatalf("%T q#%d,%d: two calls into one total %+v, separate %+v + %+v", idx, i, i+1, total, a, b)
			}
			if sr.Search(q0, 3); sr.Stats != a {
				t.Fatalf("%T q#%d: SearchInto stats %+v, PointerSearcher %+v", idx, i, a, sr.Stats)
			}
		}
	}
}

// TestSearcherOnBufferedDynamic: PointerSearcher results include unflushed
// inserts.
func TestSearcherOnBufferedDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	codes := clusteredCodes(rng, 400, 32, 8, 3)
	idx := BuildDynamic(codes[:300], nil, Options{BufferMax: 1 << 30})
	for i := 300; i < len(codes); i++ {
		idx.Insert(i, codes[i])
	}
	sr := NewPointerSearcher(idx)
	for _, q := range codes[:20] {
		if got, want := sr.Search(q, 3), oracle(codes, q, 3); !equalIDs(got, want) {
			t.Fatalf("buffered dynamic: got %d ids, want %d", len(got), len(want))
		}
	}
}

// TestSearcherAfterStaticInsert: scratch sized at construction must grow
// when the index gains nodes afterwards.
func TestSearcherAfterStaticInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	codes := clusteredCodes(rng, 300, 32, 6, 3)
	idx := BuildStatic(codes[:100], nil, 8)
	sr := NewPointerSearcher(idx)
	sr.Search(codes[0], 3) // size scratch to the small index
	for i := 100; i < len(codes); i++ {
		idx.Insert(i, codes[i])
	}
	for _, q := range codes[:20] {
		if got, want := sr.Search(q, 3), oracle(codes, q, 3); !equalIDs(got, want) {
			t.Fatalf("post-insert static search: got %d ids, want %d", len(got), len(want))
		}
	}
}

// TestSearchAppend: results copied out of scratch survive subsequent calls.
func TestSearchAppend(t *testing.T) {
	codes, queries, indexes := searcherEnv(t, 57, 600, 32, 0)
	sr := newQuerier(indexes[0])
	var acc []int
	var want []int
	for _, q := range queries[:10] {
		acc = sr.SearchAppend(acc, q, 3)
		want = append(want, oracle(codes, q, 3)...)
	}
	if !equalIDs(acc, want) {
		t.Fatalf("SearchAppend accumulated %d ids, want %d", len(acc), len(want))
	}
}

func BenchmarkSearcherSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := BuildDynamic(codes, nil, Options{})
	sr := NewPointerSearcher(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Search(codes[i%len(codes)], 3)
	}
}

func BenchmarkSearcherSearchStatic(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := BuildStatic(codes, nil, 8)
	sr := NewPointerSearcher(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Search(codes[i%len(codes)], 3)
	}
}

func BenchmarkSearchBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	queries := codes[:1024]
	for _, workers := range []int{1, 2, 4, 8} {
		if workers > runtime.GOMAXPROCS(0) {
			continue
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SearchBatch(idx, queries, 3, workers)
			}
		})
	}
}
