package client

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/histo"
	"haindex/internal/wire"
)

// TestMergeRuns: any number of ascending runs, empty ones among them, merge to
// what sorting their concatenation gives, appended after whatever dst held —
// for the ids of a select and for top-k's packed (distance, id) keys alike.
func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		runs := make([][]int, rng.Intn(6))
		keys := make([][]int64, len(runs))
		var want []int
		var wantKeys []int64
		for m := range runs {
			for j, n := 0, rng.Intn(4)*rng.Intn(40); j < n; j++ {
				runs[m] = append(runs[m], rng.Intn(500))
			}
			slices.Sort(runs[m])
			for _, v := range runs[m] {
				keys[m] = append(keys[m], int64(v)<<32|int64(m))
			}
			want = append(want, runs[m]...)
			wantKeys = append(wantKeys, keys[m]...)
		}
		slices.Sort(want)
		slices.Sort(wantKeys)
		got := mergeRuns([]int{-7, -9}, runs)
		if !slices.Equal(got[:2], []int{-7, -9}) || !slices.Equal(got[2:], want) {
			t.Fatalf("trial %d: runs %v merged to %v", trial, runs, got)
		}
		if merged := mergeRuns(nil, keys); !slices.Equal(merged, wantKeys) {
			t.Fatalf("trial %d: keys %v merged to %v", trial, keys, merged)
		}
	}
}

// bruteSelect is the oracle: every id within h of q, ascending, nil when none.
func bruteSelect(codes []bitvec.Code, q bitvec.Code, h int) []int {
	var ids []int
	for id, c := range codes {
		if c.Distance(q) <= h {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestSearchBatchMatchesBruteOracle: over one to four shards, SearchBatch
// returns exactly what a scan of all the codes does — ascending, nil for no
// match, no slice able to grow into its neighbour — for queries no shard, one
// shard, some shards and every shard answers, and top-k through the same
// merge agrees with the single-index searcher.
func TestSearchBatchMatchesBruteOracle(t *testing.T) {
	for parts := 1; parts <= 4; parts++ {
		t.Run(fmt.Sprintf("%d shards", parts), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + parts)))
			const bits = 32
			d := buildDeployment(t, rng, 1200, bits, parts, nil)
			r, err := Dial(d.addrs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			far := d.codes[0].Clone() // the complement of a stored code: nothing near it
			for b := 0; b < bits; b++ {
				far.FlipBit(b)
			}
			queries := append(d.queries(rng, 40, bits, 3), far)
			answeredBy := make(map[int]int) // shards with a match → queries
			for _, h := range []int{0, 2, 5, 9, bits} {
				got, err := r.SearchBatch(queries, h)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					want := bruteSelect(d.codes, q, h)
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("h=%d query %d: router %v, scan %v", h, i, got[i], want)
					}
					if cap(got[i]) != len(got[i]) {
						t.Fatalf("h=%d query %d: cap %d over len %d", h, i, cap(got[i]), len(got[i]))
					}
					shards := make(map[int]bool)
					for _, id := range want {
						shards[histo.PartitionID(d.pivots, d.codes[id])] = true
					}
					answeredBy[len(shards)]++
				}
			}
			for n := 0; n <= parts; n++ {
				if (n == 0 || n == 1 || n == parts) && answeredBy[n] == 0 {
					t.Fatalf("no query was answered by %d of %d shards: %v", n, parts, answeredBy)
				}
			}
			const k = 7
			ids, dists, err := r.TopK(queries, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				wantIDs, wantDists := d.oracleTopK(q, k)
				if !slices.Equal(ids[i], wantIDs) || !slices.Equal(dists[i], wantDists) {
					t.Fatalf("top-%d query %d: router (%v, %v), oracle (%v, %v)", k, i, ids[i], dists[i], wantIDs, wantDists)
				}
			}
		})
	}
}

// TestSearchBatchResultsBelongToTheCaller: two goroutines on one Router each
// overwrite every result they are handed while the other's requests are in
// flight, and keep the overwritten slices; an answer decoded or merged into
// storage a later request reuses would show as a wrong answer, a restored id,
// or a race under -race.
func TestSearchBatchResultsBelongToTheCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const bits, h = 32, 6
	d := buildDeployment(t, rng, 1500, bits, 3, nil)
	r, err := Dial(d.addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		queries := d.queries(rand.New(rand.NewSource(int64(g))), 16, bits, 3)
		want := make([][]int, len(queries))
		for i, q := range queries {
			want[i] = bruteSelect(d.codes, q, h)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept [][]int
			for round := 0; round < 40; round++ {
				got, err := r.SearchBatch(queries, h)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Errorf("round %d query %d: %v, want %v", round, i, got[i], want[i])
						return
					}
					for j := range got[i] {
						got[i][j] = -1
					}
					kept = append(kept, got[i])
				}
			}
			for _, ids := range kept {
				if slices.ContainsFunc(ids, func(id int) bool { return id != -1 }) {
					t.Errorf("a result the caller overwrote was written to again: %v", ids)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// wideReply is the two legs of one wide request as the router holds them
// after the fan-out: 16 queries, each answered by both shards with about 500
// ascending ids, even ones from shard 0 and odd ones from shard 1.
func wideReply(rng *rand.Rand) (legs []leg, perShard [][]int, want [][]int) {
	const queries = 16
	perShard = make([][]int, 2)
	resps := make([]wire.SearchResp, 2)
	want = make([][]int, queries)
	for i := 0; i < queries; i++ {
		id := 0
		for j := 0; j < 1000; j++ {
			id += 1 + rng.Intn(600)
			want[i] = append(want[i], id)
		}
		for m := range resps {
			var run []int
			for _, id := range want[i] {
				if id%2 == m {
					run = append(run, id)
				}
			}
			resps[m].IDs = append(resps[m].IDs, run)
			perShard[m] = append(perShard[m], i)
		}
	}
	for m, resp := range resps {
		legs = append(legs, leg{sh: &shard{part: m}, resp: resp.Append(nil)})
	}
	return legs, perShard, want
}

// TestMergeSearchReplyAllocs pins the client's share of a reply, after the
// frames are read: 7 allocations for a 16-query × 2 × 500-id request (the run
// table, each leg's headers and id slab, the results and the merge slab),
// where decoding by append and sorting the concatenation took 357.
func TestMergeSearchReplyAllocs(t *testing.T) {
	legs, perShard, want := wideReply(rand.New(rand.NewSource(8)))
	got, err := mergeSearch(legs, perShard, len(want))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("merged reply differs from what the legs carried (err %v)", err)
	}
	if allocs := testing.AllocsPerRun(50, func() { mergeSearch(legs, perShard, len(want)) }); allocs > 8 {
		t.Fatalf("decode+merge of a 16×2×500-id reply allocates %.0f times, want at most 8", allocs)
	}
}

func BenchmarkMergeSearch(b *testing.B) {
	legs, perShard, want := wideReply(rand.New(rand.NewSource(8)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mergeSearch(legs, perShard, len(want))
	}
}
