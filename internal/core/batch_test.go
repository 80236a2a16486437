package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// TestSearchBatchBlockWalk: over a frozen index SearchBatch walks Gray-ordered
// blocks of queries together, and each result must still be exactly what
// Searcher.Search answers for the query alone — the same ids in the same
// order — with SearchCodesBatch equal to Searcher.SearchCodes and the batch's
// stats the sum of the per-query stats. Code widths of one to three words,
// thresholds from exact to loose, batch sizes around the block size,
// duplicate queries and duplicate codes, one hierarchy and a forest of three,
// and several worker counts.
func TestSearchBatchBlockWalk(t *testing.T) {
	for _, bitsLen := range []int{8, 64, 100, 130} {
		rng := rand.New(rand.NewSource(int64(bitsLen)))
		codes := clusteredCodes(rng, 500, bitsLen, 8, 3)
		codes = append(codes, codes[:100]...) // codes that recur: groups of several ids
		rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
		ids := make([]int, len(codes))
		for i := range ids {
			ids[i] = 3*i + 1
		}
		one := BuildFrozen(bitsLen, packRows(codes), slices.Clone(ids), Options{})
		var parts []*FrozenIndex
		for lo := 0; lo < len(codes); lo += 200 {
			hi := min(lo+200, len(codes))
			parts = append(parts, BuildFrozen(bitsLen, packRows(codes[lo:hi]), slices.Clone(ids[lo:hi]), Options{}))
		}
		forest, err := Forest(parts...)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]bitvec.Code, 5000)
		for i := range queries {
			switch i % 4 {
			case 0:
				queries[i] = bitvec.Rand(rng, bitsLen)
			case 1:
				queries[i] = queries[rng.Intn(i)] // a query the batch asks twice
			default:
				queries[i] = codes[rng.Intn(len(codes))].Clone()
				queries[i].FlipBit(rng.Intn(bitsLen))
			}
		}
		for name, idx := range map[string]*FrozenIndex{"one hierarchy": one, "forest of 3": forest} {
			sr := NewSearcher(idx)
			for _, h := range []int{0, 1, 3, 8} {
				wantIDs := make([][]int, len(queries))
				wantCodes := make([][]bitvec.Code, len(queries))
				sums := make([]SearchStats, len(queries)+1) // sums[k]: the first k queries' work
				for i, q := range queries {
					if out := sr.Search(q, h); len(out) > 0 {
						wantIDs[i] = slices.Clone(out)
					}
					sums[i+1] = sums[i]
					sums[i+1].Add(sr.Stats)
					if out := sr.SearchCodes(q, h); len(out) > 0 {
						wantCodes[i] = slices.Clone(out)
					}
				}
				for _, size := range []int{0, 1, 63, 64, 65, len(queries)} {
					for _, workers := range []int{1, 2, 7} {
						what := fmt.Sprintf("L=%d %s h=%d batch=%d workers=%d", bitsLen, name, h, size, workers)
						gotIDs, st := SearchBatch(idx, queries[:size], h, workers)
						if st != sums[size] {
							t.Fatalf("%s: batch stats %+v, per-query sum %+v", what, st, sums[size])
						}
						for i := range gotIDs {
							if !slices.Equal(gotIDs[i], wantIDs[i]) || (gotIDs[i] == nil) != (wantIDs[i] == nil) {
								t.Fatalf("%s q#%d: got %v, Search answers %v", what, i, gotIDs[i], wantIDs[i])
							}
						}
						gotCodes, cst := SearchCodesBatch(idx, queries[:size], h, workers)
						if cst != sums[size] {
							t.Fatalf("%s: codes batch stats %+v, per-query sum %+v", what, cst, sums[size])
						}
						for i := range gotCodes {
							if !slices.EqualFunc(gotCodes[i], wantCodes[i], bitvec.Code.Equal) || (gotCodes[i] == nil) != (wantCodes[i] == nil) {
								t.Fatalf("%s q#%d: got codes %v, SearchCodes answers %v", what, i, gotCodes[i], wantCodes[i])
							}
						}
						if len(gotIDs) != size || len(gotCodes) != size {
							t.Fatalf("%s: %d and %d results", what, len(gotIDs), len(gotCodes))
						}
					}
				}
			}
		}
	}
}

// BenchmarkSearchBatchFrozen is the join reducer's search at the mrjoin
// workload's shape: 30k probes at h=3, one worker, against a 30k-code 64-bit
// forest of two Gray-range parts, R and S drawn from the same clusters.
func BenchmarkSearchBatchFrozen(b *testing.B) {
	const n = 30000
	rng := rand.New(rand.NewSource(7))
	all := clusteredCodes(rng, 2*n, 64, 256, 4)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	r, probes := all[:n], all[n:]
	sorted := slices.Clone(r)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	gray.Sort(sorted, ids)
	forest, err := Forest(
		BuildFrozen(64, packRows(sorted[:n/2]), ids[:n/2], Options{}),
		BuildFrozen(64, packRows(sorted[n/2:]), ids[n/2:], Options{}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st SearchStats
	for i := 0; i < b.N; i++ {
		_, st = SearchBatch(forest, probes, 3, 1)
	}
	b.ReportMetric(float64(st.DistanceComputations)/n, "dist/probe")
}
