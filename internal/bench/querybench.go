package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
)

// QueryBenchFile is where QueryBench writes its machine-readable results.
const QueryBenchFile = "BENCH_query.json"

// queryBenchJSON is the machine-readable record of one QueryBench run.
type queryBenchJSON struct {
	N          int   `json:"n"`
	Bits       int   `json:"bits"`
	Threshold  int   `json:"threshold"`
	Queries    int   `json:"queries"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	BuildNs    int64 `json:"build_ns"`
	FreezeNs   int64 `json:"freeze_ns"`

	// Serial one-searcher baselines, pointer walk vs frozen arena, with the
	// resident footprint of each index form.
	SerialNsOp       int64   `json:"serial_ns_per_query"`
	SerialQPS        float64 `json:"serial_qps"`
	FrozenSerialNsOp int64   `json:"frozen_serial_ns_per_query"`
	FrozenSerialQPS  float64 `json:"frozen_serial_qps"`
	PointerBytes     int     `json:"pointer_bytes"`
	FrozenBytes      int     `json:"frozen_bytes"`

	Runs        []queryBenchRun `json:"runs"`
	BestSpeedup float64         `json:"best_speedup"`
}

// queryBenchRun is one SearchBatch cell, over the frozen index.
type queryBenchRun struct {
	Workers   int     `json:"workers"`
	BatchSize int     `json:"batch_size"`
	NsPerOp   int64   `json:"ns_per_query"`
	QPS       float64 `json:"qps"`
	Speedup   float64 `json:"speedup_vs_serial"`
}

// QueryBench measures the batched query engine (beyond the paper): steady-
// state SearchBatch throughput over one shared frozen HA-Index as a
// function of worker count and batch size, against the serial one-Searcher
// baseline, after a serial comparison of the two index forms — the pointer
// hierarchy on a PointerSearcher and its frozen compilation on a Searcher.
// Results are printed as tables and written to BENCH_query.json.
func QueryBench(sc Scale) ([]Table, error) {
	env, err := NewEnv(dataset.NUSWide, sc.SelectN, sc.Bits, sc.Queries, sc.Seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	idx := core.BuildDynamic(env.Codes, nil, core.Options{})
	buildNs := time.Since(t0).Nanoseconds()
	t0 = time.Now()
	frozen := core.Freeze(idx)
	freezeNs := time.Since(t0).Nanoseconds()

	// Query workload: dataset members perturbed by a couple of bit flips —
	// selective queries with non-empty results, like the paper's.
	rng := rand.New(rand.NewSource(sc.Seed + 7))
	nq := 4096
	if nq > 2*len(env.Codes) {
		nq = 2 * len(env.Codes)
	}
	queries := make([]bitvec.Code, nq)
	for i := range queries {
		c := env.Codes[rng.Intn(len(env.Codes))].Clone()
		for f := 0; f < 2; f++ {
			c.FlipBit(rng.Intn(sc.Bits))
		}
		queries[i] = c
	}

	// Serial baseline per index form: one reused searcher, one query at a
	// time. A warmup pass sizes the scratch so the measurement sees the
	// steady state.
	serialNs := func(search func(bitvec.Code, int) []int) time.Duration {
		for _, q := range queries[:nq/4] {
			search(q, sc.Threshold)
		}
		t0 := time.Now()
		for _, q := range queries {
			search(q, sc.Threshold)
		}
		return time.Since(t0)
	}
	serial := serialNs(core.NewPointerSearcher(idx).Search)
	frozenSerial := serialNs(core.NewSearcher(frozen).Search)

	rec := queryBenchJSON{
		N:                len(env.Codes),
		Bits:             sc.Bits,
		Threshold:        sc.Threshold,
		Queries:          nq,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		BuildNs:          buildNs,
		FreezeNs:         freezeNs,
		SerialNsOp:       serial.Nanoseconds() / int64(nq),
		SerialQPS:        float64(nq) / serial.Seconds(),
		FrozenSerialNsOp: frozenSerial.Nanoseconds() / int64(nq),
		FrozenSerialQPS:  float64(nq) / frozenSerial.Seconds(),
		PointerBytes:     idx.SizeBytes(),
		FrozenBytes:      frozen.SizeBytes(),
	}

	forms := Table{
		Title: "Query engine: pointer walk vs frozen (compiled) index, serial searcher",
		Note: fmt.Sprintf("%s, n=%d, L=%d bits, h=%d, %d queries; build %v, freeze %v",
			env.Profile.Name, len(env.Codes), sc.Bits, sc.Threshold, nq,
			time.Duration(buildNs).Round(time.Millisecond), time.Duration(freezeNs).Round(time.Millisecond)),
		Header: []string{"index form", "ns/query", "q/s", "resident bytes"},
		Rows: [][]string{
			{"pointer (DynamicIndex)", fmt.Sprintf("%d", rec.SerialNsOp),
				fmt.Sprintf("%.0f", rec.SerialQPS), fmt.Sprintf("%d", rec.PointerBytes)},
			{"frozen (FrozenIndex)", fmt.Sprintf("%d", rec.FrozenSerialNsOp),
				fmt.Sprintf("%.0f", rec.FrozenSerialQPS), fmt.Sprintf("%d", rec.FrozenBytes)},
		},
	}

	workerCounts := []int{1, 2, 4, 8}
	batchSizes := []int{64, 256, 1024}
	tables := []Table{forms}
	t := Table{
		Title: "Query engine: SearchBatch throughput vs workers and batch size (frozen index)",
		Note: fmt.Sprintf("%s, n=%d, L=%d bits, h=%d, %d queries; cells are q/s (speedup vs %.0f q/s serial frozen baseline); GOMAXPROCS=%d",
			env.Profile.Name, len(env.Codes), sc.Bits, sc.Threshold, nq,
			float64(nq)/frozenSerial.Seconds(), rec.GOMAXPROCS),
		Header: []string{"batch size"},
	}
	for _, w := range workerCounts {
		t.Header = append(t.Header, fmt.Sprintf("workers=%d", w))
	}
	for _, b := range batchSizes {
		row := []string{fmt.Sprintf("%d", b)}
		for _, w := range workerCounts {
			t0 := time.Now()
			for off := 0; off < nq; off += b {
				end := off + b
				if end > nq {
					end = nq
				}
				core.SearchBatch(frozen, queries[off:end], sc.Threshold, w)
			}
			dur := time.Since(t0)
			qps := float64(nq) / dur.Seconds()
			speedup := frozenSerial.Seconds() / dur.Seconds()
			rec.Runs = append(rec.Runs, queryBenchRun{
				Workers:   w,
				BatchSize: b,
				NsPerOp:   dur.Nanoseconds() / int64(nq),
				QPS:       qps,
				Speedup:   speedup,
			})
			if speedup > rec.BestSpeedup {
				rec.BestSpeedup = speedup
			}
			row = append(row, fmt.Sprintf("%.0f (%.2fx)", qps, speedup))
		}
		t.Rows = append(t.Rows, row)
	}
	tables = append(tables, t)

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encoding %s: %w", QueryBenchFile, err)
	}
	if err := os.WriteFile(QueryBenchFile, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("bench: writing %s: %w", QueryBenchFile, err)
	}
	return tables, nil
}
