// Streaming demonstrates the *dynamic* in Dynamic HA-Index (Section 4.5):
// a long-running workload interleaves inserts, deletes and Hamming-select
// queries — the regime where rebuild-only structures fall over — while the
// index buffers insertions, batch-appends them with H-Build, and unlinks
// emptied nodes on deletion. Every 10,000 operations the example
// cross-checks the index against a shadow brute-force table and reports
// throughput, plus a cost-based planner EXPLAIN at two thresholds.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"haindex"
)

func main() {
	const (
		bits    = 32
		initial = 20000
		ops     = 50000
	)
	rng := rand.New(rand.NewSource(11))

	// Clustered synthetic codes, like hashed feature vectors.
	centers := make([]haindex.Code, 64)
	for i := range centers {
		c := haindex.NewCode(bits)
		for b := 0; b < bits; b++ {
			if rng.Intn(2) == 1 {
				c.SetBit(b, true)
			}
		}
		centers[i] = c
	}
	newCode := func() haindex.Code {
		c := centers[rng.Intn(len(centers))].Clone()
		for f := 0; f < 3; f++ {
			c.FlipBit(rng.Intn(bits))
		}
		return c
	}

	// Shadow table: id -> code, the ground truth.
	shadow := make(map[int]haindex.Code, initial)
	codes := make([]haindex.Code, initial)
	for i := range codes {
		codes[i] = newCode()
		shadow[i] = codes[i]
	}
	idx := haindex.BuildDynamicIndex(codes, nil, haindex.IndexOptions{})
	nextID := initial
	live := make([]int, initial)
	for i := range live {
		live[i] = i
	}

	var inserts, deletes, queries, checks int
	t0 := time.Now()
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 3: // insert
			id := nextID
			nextID++
			c := newCode()
			idx.Insert(id, c)
			shadow[id] = c
			live = append(live, id)
			inserts++
		case r < 5 && len(live) > 1000: // delete
			pos := rng.Intn(len(live))
			id := live[pos]
			if !idx.Delete(id, shadow[id]) {
				panic("delete failed")
			}
			delete(shadow, id)
			live[pos] = live[len(live)-1]
			live = live[:len(live)-1]
			deletes++
		default: // query
			id := live[rng.Intn(len(live))]
			q := shadow[id].Clone()
			q.FlipBit(rng.Intn(bits))
			idx.Search(q, 3)
			queries++
		}
		if (op+1)%10000 == 0 {
			// Cross-check a random query against the shadow table.
			id := live[rng.Intn(len(live))]
			q := shadow[id]
			got := idx.Search(q, 3)
			want := 0
			for _, c := range shadow {
				if haindex.Distance(q, c) <= 3 {
					want++
				}
			}
			if len(got) != want {
				panic(fmt.Sprintf("drift at op %d: index %d vs shadow %d", op+1, len(got), want))
			}
			checks++
			fmt.Printf("op %6d: %d live tuples, index consistent (%d matches), %d nodes\n",
				op+1, len(live), want, idx.NodeCount())
		}
	}
	took := time.Since(t0)
	fmt.Printf("\n%d ops in %v (%.0f ops/s): %d inserts, %d deletes, %d queries, %d consistency checks\n",
		ops, took.Round(time.Millisecond), float64(ops)/took.Seconds(), inserts, deletes, queries, checks)

	// Planner view over the final state, in the seeded order of the live
	// ids: the planner counts work instead of timing it, so its EXPLAIN is
	// the same on every run and every machine.
	finalCodes := make([]haindex.Code, 0, len(live))
	for _, id := range live {
		finalCodes = append(finalCodes, shadow[id])
	}
	pl, err := haindex.NewPlanner(finalCodes, live, haindex.PlannerOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	q := finalCodes[0]
	pl.Select(q, 3)
	pl.Select(q, 28)
	fmt.Println()
	fmt.Print(pl.Explain(3))
	fmt.Print(pl.Explain(28))
}
