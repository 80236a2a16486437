// Command hajoin runs the MapReduce Hamming-join pipeline of Section 5 over
// two CSV datasets: preprocessing (sampling, hash learning, pivot
// selection), global HA-Index construction, and the join itself (Option A
// or B), or one of the distributed baselines (PMH, PGBJ). It reports result
// size, shuffle and broadcast volumes, reducer skew, and per-phase times;
// for Options A and B, also the engine the reducers searched the global
// index with, the counted plan that chose it, and what building MIH and the
// plan took.
//
// Usage:
//
//	hagen -profile NUS-WIDE -n 2000 -o r.csv
//	hagen -profile NUS-WIDE -n 2000 -seed 2 -o s.csv
//	hajoin -r r.csv -s s.csv -method mrha-a -h 3 -nodes 16
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"haindex/internal/dataset"
	"haindex/internal/mapreduce"
	"haindex/internal/mrjoin"
)

func main() {
	var (
		rPath    = flag.String("r", "", "CSV dataset for table R (required)")
		sPath    = flag.String("s", "", "CSV dataset for table S (defaults to R: self-join)")
		method   = flag.String("method", "mrha-a", "plan: mrha-a|mrha-b|pmh|pgbj")
		h        = flag.Int("h", 3, "Hamming distance threshold")
		bits     = flag.Int("bits", 32, "binary code length")
		nodes    = flag.Int("nodes", 16, "simulated cluster size")
		sample   = flag.Float64("sample", 0.1, "preprocessing sample rate")
		k        = flag.Int("k", 50, "k for the PGBJ kNN-join")
		seed     = flag.Int64("seed", 1, "RNG seed")
		sworkers = flag.Int("search-workers", 0, "per-reducer query-batch workers (0 = GOMAXPROCS, 1 = serial)")

		failEvery = flag.Int("fail-every", 0, "inject a failure into the first attempt of every Nth map and reduce task (0 = none)")
		straggle  = flag.Duration("straggle", 0, "stall map task 0 of every job by this duration (straggler injection)")
		speculate = flag.Bool("speculate", false, "enable speculative execution of stragglers")
		retries   = flag.Int("retries", 0, "per-task attempt budget (0 = Hadoop's default of 4)")
	)
	flag.Parse()
	if *rPath == "" {
		fatalf("-r is required")
	}
	r, err := dataset.ReadCSV(*rPath)
	if err != nil {
		fatalf("%v", err)
	}
	s := r
	if *sPath != "" {
		if s, err = dataset.ReadCSV(*sPath); err != nil {
			fatalf("%v", err)
		}
	}
	opt := mrjoin.Options{
		Bits:       *bits,
		Nodes:      *nodes,
		Partitions: *nodes,
		SampleRate: *sample,
		Threshold:  *h,
		Seed:       *seed,
		Retry:      mapreduce.RetryPolicy{MaxAttempts: *retries},

		SearchWorkers: *sworkers,
	}
	if *failEvery > 0 || *straggle > 0 {
		plan := mapreduce.NewFaultPlan()
		if *failEvery > 0 {
			plan.FailEvery(mapreduce.MapTask, *failEvery).FailEvery(mapreduce.ReduceTask, *failEvery)
		}
		if *straggle > 0 {
			plan.Delay(mapreduce.MapTask, 0, 0, *straggle)
		}
		opt.Faults = plan
	}
	if *speculate {
		opt.Speculation = mapreduce.Speculation{Enabled: true}
	}
	fmt.Printf("R: %d tuples, S: %d tuples, h=%d, %d nodes\n", len(r), len(s), *h, *nodes)

	if *method == "pgbj" {
		t0 := time.Now()
		res, err := mrjoin.PGBJ(r, s, *k, opt)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("PGBJ exact %d-NN join: %d result lists in %v\n", *k, len(res.Neighbors), time.Since(t0).Round(time.Millisecond))
		printMetrics("total", res.Metrics)
		return
	}

	t0 := time.Now()
	pre, err := mrjoin.Preprocess(r, s, opt)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("phase 1 (preprocess): sample=%d in %v, learn=%v, hash=%v, pivots=%v\n",
		pre.SampleSize, pre.SampleTime.Round(time.Microsecond), pre.LearnTime.Round(time.Millisecond),
		pre.HashTime.Round(time.Microsecond), pre.PivotTime.Round(time.Microsecond))

	if *method == "pmh" {
		res, err := mrjoin.PMHJoin(r, s, pre, 10, opt)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("PMH-10 join: %d pairs in %v\n", len(res.Pairs), time.Since(t0).Round(time.Millisecond))
		printMetrics("join", res.Metrics)
		return
	}

	g, err := mrjoin.BuildGlobalIndex(r, pre, opt)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("phase 2 (global HA-Index): %d nodes, %d edges, merge=%v\n",
		g.Index.NodeCount(), g.Index.EdgeCount(), g.Merge.Round(time.Microsecond))
	printMetrics("build", g.Metrics)

	var res *mrjoin.JoinResult
	switch *method {
	case "mrha-a":
		res, err = mrjoin.HammingJoinA(s, g, pre, opt)
	case "mrha-b":
		res, err = mrjoin.HammingJoinB(s, g, pre, opt)
	default:
		fatalf("unknown method %q", *method)
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("phase 3 (%s): %d pairs, total %v\n", *method, len(res.Pairs), time.Since(t0).Round(time.Millisecond))
	printMetrics("join", res.Metrics)
	if res.PostJoin > 0 {
		fmt.Printf("  post-join (id recovery): %v\n", res.PostJoin.Round(time.Microsecond))
	}
	// The reducers ran the forest's counted plan; the job built it.
	rp, err := g.Plan()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("  reducers searched with %s: MIH build %v, plan %v\n",
		res.Engine, rp.MIHBuild.Round(time.Microsecond), rp.Count.Round(time.Microsecond))
	for _, line := range strings.Split(strings.TrimRight(rp.Explain(*h), "\n"), "\n") {
		fmt.Printf("    %s\n", line)
	}
}

func printMetrics(phase string, m mapreduce.Metrics) {
	fmt.Printf("  %s: shuffle %.3f MB, broadcast %.3f MB, reducer skew %.2f\n",
		phase, float64(m.ShuffleBytes)/1e6, float64(m.BroadcastBytes)/1e6, m.Skew())
	if m.Wall > 0 {
		fmt.Printf("  %s walls: map=%v shuffle=%v reduce=%v (total %v)\n",
			phase, m.MapWall.Round(time.Microsecond), m.ShuffleWall.Round(time.Microsecond),
			m.ReduceWall.Round(time.Microsecond), m.Wall.Round(time.Microsecond))
	}
	if m.Attempts > int64(m.Tasks()) || m.SpeculativeLaunched > 0 {
		fmt.Printf("  %s failures: %d attempts for %d tasks, %d retried, %d/%d speculative won/launched, wasted %.3f MB\n",
			phase, m.Attempts, m.Tasks(), m.RetriedTasks, m.SpeculativeWon, m.SpeculativeLaunched,
			float64(m.WastedBytes)/1e6)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "hajoin: "+format+"\n", args...)
	os.Exit(1)
}
