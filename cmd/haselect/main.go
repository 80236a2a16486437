// Command haselect answers Hamming-select queries over a CSV dataset: it
// learns a spectral hash from a sample, hashes the dataset into binary
// codes, builds the chosen index, and reports the tuples within the Hamming
// threshold of each query row, with per-query work statistics.
//
// Usage:
//
//	hagen -profile NUS-WIDE -n 20000 -o d.csv
//	haselect -data d.csv -method dha -h 3 -query-rows 0,17,99
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"haindex/internal/baseline"
	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/hash"
	"haindex/internal/mih"
	"haindex/internal/planner"
	"haindex/internal/radix"
)

func main() {
	var (
		data    = flag.String("data", "", "CSV dataset (from hagen); required")
		method  = flag.String("method", "dha", "index: dha|sha|radix|nl|mh4|mh10|hengine|hmsearch|mih|planner")
		engine  = flag.String("engine", "auto", "with -method planner: auto|ha|mih|scan — force one access path or let the counted cost model choose")
		h       = flag.Int("h", 3, "Hamming distance threshold")
		bits    = flag.Int("bits", 32, "binary code length")
		rows    = flag.String("query-rows", "0", "comma-separated dataset row ids used as queries")
		seed    = flag.Int64("seed", 1, "RNG seed for hash learning sample")
		verbose = flag.Bool("v", false, "print matched ids (not just counts)")
		workers = flag.Int("workers", 1, "batch the query rows through a SearchBatch worker pool (0 = GOMAXPROCS, 1 = serial per-query loop); dha (frozen first) and mih only")
	)
	flag.Parse()
	if *data == "" {
		fatalf("-data is required")
	}
	vecs, err := dataset.ReadCSV(*data)
	if err != nil {
		fatalf("%v", err)
	}
	sample := dataset.Reservoir(vecs, len(vecs)/10+100, *seed)
	hf, err := hash.LearnSpectral(sample, *bits)
	if err != nil {
		fatalf("learning hash: %v", err)
	}
	codes := hash.HashAll(hf, vecs)

	t0 := time.Now()
	search, stats, size, batchIndex := buildIndex(*method, *engine, codes, *h, *seed)
	fmt.Printf("built %s over %d tuples in %v (%.1f MB)\n",
		*method, len(codes), time.Since(t0).Round(time.Millisecond), float64(size())/1e6)

	var rowIDs []int
	for _, part := range strings.Split(*rows, ",") {
		row, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || row < 0 || row >= len(codes) {
			fatalf("invalid query row %q (dataset has %d rows)", part, len(codes))
		}
		rowIDs = append(rowIDs, row)
	}

	if *workers != 1 {
		// Batch path: drain every query row through a worker pool of
		// Searchers over the shared index.
		if batchIndex == nil {
			fatalf("-workers %d: -method %s has no batch path; batch -method dha or mih, or run with -workers 1", *workers, *method)
		}
		batchIdx := batchIndex()
		queries := make([]bitvec.Code, len(rowIDs))
		for i, row := range rowIDs {
			queries[i] = codes[row]
		}
		t0 := time.Now()
		results, st := core.SearchBatch(batchIdx, queries, *h, *workers)
		took := time.Since(t0)
		for i, row := range rowIDs {
			ids := append([]int(nil), results[i]...)
			sort.Ints(ids)
			fmt.Printf("query row %d (code %s): %d matches\n", row, queries[i].String(), len(ids))
			if *verbose {
				fmt.Printf("  ids: %v\n", ids)
			}
		}
		qps := float64(len(queries)) / took.Seconds()
		fmt.Printf("batch: %d queries in %v (%.0f q/s, workers=%d) [%d distance computations, %d nodes visited]\n",
			len(queries), took.Round(time.Microsecond), qps, *workers, st.DistanceComputations, st.NodesVisited)
		return
	}

	for _, row := range rowIDs {
		q := codes[row]
		t0 := time.Now()
		ids := search(q, *h)
		took := time.Since(t0)
		sort.Ints(ids)
		fmt.Printf("query row %d (code %s): %d matches in %v%s\n",
			row, q.String(), len(ids), took, stats())
		if *verbose {
			fmt.Printf("  ids: %v\n", ids)
		}
	}
}

// buildIndex wires up the requested method behind a common search closure.
// batchIndex is non-nil for the methods that support the batched Searcher
// engine: dha, whose index it freezes so the batch walks a Gray block at a
// time, and mih.
func buildIndex(method, engine string, codes []bitvec.Code, h int, seed int64) (search func(bitvec.Code, int) []int, stats func() string, size func() int, batchIndex func() core.Engine) {
	noStats := func() string { return "" }
	switch method {
	case "dha":
		idx := core.BuildDynamic(codes, nil, core.Options{})
		sr := core.NewPointerSearcher(idx)
		return func(q bitvec.Code, h int) []int { return sr.SearchAppend(nil, q, h) }, func() string {
			return fmt.Sprintf(" [%d distance computations, %d nodes visited]",
				sr.Stats.DistanceComputations, sr.Stats.NodesVisited)
		}, idx.SizeBytes, func() core.Engine { return core.Freeze(idx) }
	case "sha":
		idx := core.BuildStatic(codes, nil, 8)
		sr := core.NewPointerSearcher(idx)
		return func(q bitvec.Code, h int) []int { return sr.SearchAppend(nil, q, h) }, func() string {
			return fmt.Sprintf(" [%d distance computations]", sr.Stats.DistanceComputations)
		}, idx.SizeBytes, nil
	case "radix":
		idx := radix.Build(codes, nil)
		return idx.Search, func() string {
			return fmt.Sprintf(" [%d nodes visited]", idx.Stats.NodesVisited)
		}, idx.SizeBytes, nil
	case "nl":
		idx := baseline.NewNestedLoop(codes, nil)
		return idx.Search, noStats, idx.SizeBytes, nil
	case "mh4", "mh10":
		build := baseline.NewMH4
		if method == "mh10" {
			build = baseline.NewMH10
		}
		idx, err := build(codes, nil)
		if err != nil {
			fatalf("%v", err)
		}
		return idx.Search, noStats, idx.SizeBytes, nil
	case "hengine":
		idx, err := baseline.NewHEngine(codes, nil, h)
		if err != nil {
			fatalf("%v", err)
		}
		return idx.Search, noStats, idx.SizeBytes, nil
	case "hmsearch":
		idx, err := baseline.NewHmSearch(codes, nil, h)
		if err != nil {
			fatalf("%v", err)
		}
		return idx.Search, noStats, idx.SizeBytes, nil
	case "mih":
		m, err := mih.Build(codes, nil, mih.Options{})
		if err != nil {
			fatalf("%v", err)
		}
		sr := core.NewSearcher(m)
		return func(q bitvec.Code, h int) []int { return sr.SearchAppend(nil, q, h) }, func() string {
			return fmt.Sprintf(" [%d probes, %d candidates verified]",
				sr.Stats.NodesVisited, sr.Stats.DistanceComputations)
		}, m.SizeBytes, func() core.Engine { return m }
	case "planner":
		pl, err := planner.Auto(codes, nil, planner.Options{Seed: seed})
		if err != nil {
			fatalf("%v", err)
		}
		forced, haveForced := planner.Strategy(0), false
		if engine != "auto" {
			if forced, err = planner.ParseStrategy(engine); err != nil {
				fatalf("%v", err)
			}
			haveForced = true
		}
		var last planner.Plan
		search := func(q bitvec.Code, h int) []int {
			if haveForced {
				out, _ := pl.SelectWith(forced, q, h)
				return out
			}
			var out []int
			out, _, last = pl.Select(q, h)
			return out
		}
		size := func() int {
			sz := 0
			eng := pl.Engines()
			sz += eng.HA.SizeBytes()
			if eng.MIH != nil {
				if m, ok := eng.MIH.(*mih.Index); ok {
					sz += m.SizeBytes()
				}
			}
			return sz
		}
		return search, func() string {
			if haveForced {
				return fmt.Sprintf(" [path=%s: forced by -engine]", forced)
			}
			return fmt.Sprintf(" [path=%s]", last.Reason()) // the reason names the strategy first
		}, size, nil
	}
	fatalf("unknown method %q", method)
	return nil, nil, nil, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "haselect: "+format+"\n", args...)
	os.Exit(1)
}
