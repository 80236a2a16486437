package bench

import (
	"fmt"
	"sort"
	"time"

	"haindex/internal/dataset"
	"haindex/internal/mapreduce"
	"haindex/internal/mrjoin"
	"haindex/internal/vector"
)

// This file is the failure-model study — beyond the paper, which ran on a
// real Hadoop cluster and inherited its fault tolerance for free. The sweep
// shows the property the paper's exactness claims silently depend on: task
// failures and stragglers change the join's cost (attempts, wasted work,
// wall time) but never its answer or its shuffle volume.

// stragglerDelay is the injected stall for the speculation study: long
// enough to dominate a laptop-scale job's wall time, short enough that the
// full sweep stays in benchmark budget.
const stragglerDelay = 60 * time.Millisecond

// faultPipeline runs the full MRHA pipeline (preprocess → global index
// build → Option A join) under one failure configuration, returning the
// join pairs, the combined build+join metrics, and the end-to-end wall.
func faultPipeline(r, s []vector.Vec, opt mrjoin.Options) ([]mrjoin.Pair, mapreduce.Metrics, time.Duration, error) {
	t0 := time.Now()
	pre, err := mrjoin.Preprocess(r, s, opt)
	if err != nil {
		return nil, mapreduce.Metrics{}, 0, err
	}
	g, err := mrjoin.BuildGlobalIndex(r, pre, opt)
	if err != nil {
		return nil, mapreduce.Metrics{}, 0, err
	}
	join, err := mrjoin.HammingJoinA(s, g, pre, opt)
	if err != nil {
		return nil, mapreduce.Metrics{}, 0, err
	}
	var total mapreduce.Metrics
	total.Add(g.Metrics)
	total.Add(join.Metrics)
	return join.Pairs, total, time.Since(t0), nil
}

func sortPairs(ps []mrjoin.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].RID != ps[j].RID {
			return ps[i].RID < ps[j].RID
		}
		return ps[i].SID < ps[j].SID
	})
}

func samePairs(a, b []mrjoin.Pair) bool {
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

// FaultSweep measures the Hamming-join under the runtime failure model:
// first a failure-rate sweep (wall time, attempts, wasted work, and an
// exactness check against the failure-free run), then the straggler study
// (speculative execution on vs off).
func FaultSweep(sc Scale) ([]Table, error) {
	p := dataset.NUSWide
	base := dataset.Generate(p, sc.JoinBase*2, sc.Seed)
	r, s := base, base
	mkOpt := func() mrjoin.Options {
		return mrjoin.Options{
			Bits:       sc.Bits,
			Partitions: sc.Partitions,
			Nodes:      sc.Nodes,
			SampleRate: 0.1,
			Threshold:  sc.Threshold,
			Seed:       sc.Seed,
			Engine:     reproEngine,
			// Tight backoff keeps the sweep's injected retries from
			// dominating a laptop-scale run.
			Retry: mapreduce.RetryPolicy{Backoff: 100 * time.Microsecond},
		}
	}

	sweep := Table{
		Title: fmt.Sprintf("Fault sweep: MRHA join (Option A) under injected task failures (%s)", p.Name),
		Note: fmt.Sprintf("n=%d per side, self-join, h=%d, %d nodes; first attempt of every k-th map and reduce task fails; "+
			"exact = pairs and shuffle bytes identical to the failure-free run", len(base), sc.Threshold, sc.Nodes),
		Header: []string{"fail-rate", "wall(s)", "tasks", "attempts", "retried", "wasted(MB)", "exact"},
	}
	var refPairs []mrjoin.Pair
	var refShuffle int64
	for _, mod := range []int{0, 8, 4, 2} {
		opt := mkOpt()
		rate := "0"
		if mod > 0 {
			opt.Faults = mapreduce.NewFaultPlan().
				FailEvery(mapreduce.MapTask, mod).
				FailEvery(mapreduce.ReduceTask, mod)
			rate = fmt.Sprintf("1/%d", mod)
		}
		pairs, m, wall, err := faultPipeline(r, s, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: fault sweep (mod %d): %v", mod, err)
		}
		sortPairs(pairs)
		if mod == 0 {
			refPairs, refShuffle = pairs, m.ShuffleBytes
		}
		exact := "yes"
		if !samePairs(pairs, refPairs) || m.ShuffleBytes != refShuffle {
			exact = "NO"
		}
		sweep.Rows = append(sweep.Rows, []string{
			rate, secs(wall), fmt.Sprintf("%d", m.Tasks()),
			fmt.Sprintf("%d", m.Attempts), fmt.Sprintf("%d", m.RetriedTasks),
			fmt.Sprintf("%.3f", float64(m.WastedBytes)/1e6), exact,
		})
	}

	straggler := Table{
		Title: "Straggler study: speculative execution vs a stalled map task",
		Note: fmt.Sprintf("map task 0 of each job stalls %v; speculation races a backup attempt and takes the first finisher",
			stragglerDelay),
		Header: []string{"speculation", "wall(s)", "attempts", "spec-launched", "spec-won", "exact"},
	}
	for _, speculate := range []bool{false, true} {
		opt := mkOpt()
		opt.Faults = mapreduce.NewFaultPlan().
			Delay(mapreduce.MapTask, 0, 0, stragglerDelay)
		label := "off"
		if speculate {
			opt.Speculation = mapreduce.Speculation{Enabled: true, MinCompleted: 2}
			label = "on"
		}
		pairs, m, wall, err := faultPipeline(r, s, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: straggler study (speculate=%v): %v", speculate, err)
		}
		sortPairs(pairs)
		exact := "yes"
		if !samePairs(pairs, refPairs) || m.ShuffleBytes != refShuffle {
			exact = "NO"
		}
		straggler.Rows = append(straggler.Rows, []string{
			label, secs(wall), fmt.Sprintf("%d", m.Attempts),
			fmt.Sprintf("%d", m.SpeculativeLaunched), fmt.Sprintf("%d", m.SpeculativeWon), exact,
		})
	}
	return []Table{sweep, straggler}, nil
}
