// Command benchmark is the repo's one benchmark. It drives real haserve
// child processes over loopback (workloads point, wide, churn) and the
// MapReduce join pipeline in-process (workload mrjoin), checks every answer
// it samples against its own brute-force scan, and prints the metrics that
// BENCHMARK.json names. See README.md beside this file.
//
// It is a module of its own (haindex/benchmark, replace haindex => ../) so
// that it builds from its own go.mod; run.sh builds and runs it from the root
// of a checkout:
//
//	bash benchmark/run.sh --workload point --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload point --seed 1 --seconds 12 --trace 1
//	bash benchmark/run.sh -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"point", "h=2 batch-1 selects on default haserve: the engine is a few percent of a request, so client, wire, server and planner overhead and shard fan-out do the work; also the default-flag start-up"},
	{"wide", "h=8 batch-16 selects, about 1000 ids each, same servers: the scan-regime engines and reply encode, decode and merge dominate; a per-request overhead change should not show here"},
	{"churn", "haserve -mutable: one caller selects at h=3 while the other inserts and deletes in batches of 16, with background seals and compactions: reads beside writes through the LSM path"},
	{"mrjoin", "the paper's offline pipeline in-process: Preprocess, then BuildGlobalIndex + HammingJoinA and BuildShardSnapshots over spectral-hashed 225-d vectors: the only workload the MapReduce layers carry"},
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them; README.md says what each means on each workload. The timings
// take the harness's own scan, run beside them, as the clock: the sandbox's
// speed drifts by a fifth and more over minutes, and a number that does not
// repeat cannot carry a bound. The same figures in the machine's own time are
// in the run record and among the per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"speedup_vs_scan", "ratio", "higher", 0.25},
	{"search_p50_scans", "scans", "lower", 0.25},
	{"ingest_per_scan", "tuples/scan", "higher", 0.25},
	{"mem_mb", "MB", "lower", 0.25},
}

// perLayer lists single-layer figures, named layer.metric after the module
// that does the work. They come from the traced run only and carry no bound.
// A figure that does not exist on a workload reads 0 there.
var perLayer = []metricDef{
	{"trace_overhead_ratio", "ratio", "higher", 0},

	{"client.self_us", "us", "lower", 0},
	{"client.search_qps", "1/s", "higher", 0},
	{"client.request_p50_us", "us", "lower", 0},
	{"client.request_p99_us", "us", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"client.write_tps", "1/s", "higher", 0},
	{"client.write_p50_us", "us", "lower", 0},
	{"client.write_p99_us", "us", "lower", 0},

	{"histo.route_ns", "ns", "lower", 0},
	{"histo.shards_per_query", "count", "lower", 0},
	{"histo.pruned_ratio", "ratio", "higher", 0},
	{"histo.pivots_s", "s", "lower", 0},

	{"wire.encode_req_ns", "ns", "lower", 0},
	{"wire.decode_req_ns", "ns", "lower", 0},
	{"wire.encode_resp_ns", "ns", "lower", 0},
	{"wire.decode_resp_ns", "ns", "lower", 0},
	{"wire.req_bytes", "bytes", "lower", 0},
	{"wire.resp_bytes", "bytes", "lower", 0},
	{"wire.stats_rtt_us", "us", "lower", 0},
	{"wire.map_snapshot_s", "s", "lower", 0},

	{"server.shard_rtt_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.load_s", "s", "lower", 0},
	{"server.admission_p50_ns", "ns", "lower", 0},
	{"server.latency_p50_us", "us", "lower", 0},
	{"server.errors", "count", "lower", 0},

	{"planner.calibrate_s", "s", "lower", 0},
	{"planner.auto_ns", "ns", "lower", 0},
	{"planner.pick_overhead_ns", "ns", "lower", 0},
	{"planner.hit_ratio", "ratio", "higher", 0},
	{"planner.scan_ns", "ns", "lower", 0},

	{"core.ha_search_ns", "ns", "lower", 0},
	{"core.ha_dist_per_query", "count", "lower", 0},
	{"core.ha_nodes_per_query", "count", "lower", 0},
	{"core.build_dynamic_s", "s", "lower", 0},
	{"core.freeze_s", "s", "lower", 0},
	{"core.stream_write_s", "s", "lower", 0},
	{"core.snapshot_bytes_per_code", "bytes/code", "lower", 0},

	{"mih.search_ns", "ns", "lower", 0},
	{"mih.build_s", "s", "lower", 0},
	{"mih.size_bytes", "bytes", "lower", 0},

	{"bitvec.scan_ns_per_code", "ns/code", "lower", 0},

	{"lsm.insert_ns", "ns", "lower", 0},
	{"lsm.delete_ns", "ns", "lower", 0},
	{"lsm.search_ns", "ns", "lower", 0},
	{"lsm.seal_s", "s", "lower", 0},
	{"lsm.compact_s", "s", "lower", 0},
	{"lsm.seals", "count", "lower", 0},
	{"lsm.compactions", "count", "lower", 0},
	{"lsm.segments", "count", "lower", 0},

	{"mapreduce.build_map_s", "s", "lower", 0},
	{"mapreduce.build_shuffle_s", "s", "lower", 0},
	{"mapreduce.build_reduce_s", "s", "lower", 0},
	{"mapreduce.join_map_s", "s", "lower", 0},
	{"mapreduce.join_shuffle_s", "s", "lower", 0},
	{"mapreduce.join_reduce_s", "s", "lower", 0},
	{"mapreduce.shuffle_bytes", "bytes", "lower", 0},
	{"mapreduce.broadcast_bytes", "bytes", "lower", 0},
	{"mapreduce.reducer_skew", "ratio", "lower", 0},
	{"mapreduce.attempts", "count", "lower", 0},

	{"mrjoin.join_tuples_per_s", "1/s", "higher", 0},
	{"mrjoin.build_codes_per_s", "1/s", "higher", 0},
	{"mrjoin.merge_s", "s", "lower", 0},
	{"mrjoin.pairs", "count", "higher", 0},
	{"mrjoin.snapshot_job_s", "s", "lower", 0},

	{"hash.learn_s", "s", "lower", 0},
	{"hash.encode_ns_per_vec", "ns/vec", "lower", 0},
	{"gray.sort_s", "s", "lower", 0},
}

// runSeconds is BENCHMARK.json's run_seconds: the measured window of one run.
const runSeconds = 12

// sizes fixes how much work a run does besides its measured window. The
// smoke test shrinks it.
type sizes struct {
	PointN      int           // stored codes behind point and wide
	ChurnN      int           // seed codes behind churn
	LiveCap     int           // inserted tuples churn's script lets live before deletes match inserts
	JoinN       int           // vectors on each side of mrjoin
	JoinReps    int           // least repetitions of each mrjoin job, however short the window
	SetupCycles int           // most set-ups per run; setup_s is their median
	SetupBudget time.Duration // after two set-ups, stop repeating once they have taken this long together
	Verify      int           // requests checked one by one before warm-up
	Warmup      time.Duration
	LoadSlice   time.Duration // a measured window is cycles of this much load from the callers
	ScanSlice   time.Duration // and this much of the scan baseline
	SampleEvery int           // 1 in this many replies is oracle-checked (and, traced, replayed)
	FinalChecks int           // churn: full-live-set queries after the final seal
	LayerProbes int           // traced run: queries timed through each engine
}

var fullSizes = sizes{
	PointN: 300_000, ChurnN: 200_000, LiveCap: 8 * memtableMax, JoinN: 30_000, JoinReps: 3,
	SetupCycles: 15, SetupBudget: 3 * time.Second, Verify: 100, Warmup: 1500 * time.Millisecond,
	LoadSlice: time.Second, ScanSlice: 150 * time.Millisecond, SampleEvery: 64, FinalChecks: 500, LayerProbes: 500,
}

// env is what every workload run needs.
type env struct {
	dir string // scratch directory; everything the run writes is under it
	// traceOut is where the traced run writes its spans; empty writes none.
	traceOut string
	bin      string // the built haserve
	sz       sizes
	seed     int64
	window   time.Duration
}

// setupsDone reports whether set-up has been repeated enough: at least twice,
// and then until the repeats have used up the budget. A set-up of seconds is
// steady after two; one of milliseconds needs all SetupCycles.
func (e *env) setupsDone(done []time.Duration) bool {
	var total time.Duration
	for _, d := range done {
		total += d
	}
	return len(done) >= 2 && total >= e.sz.SetupBudget
}

// outcome is one run's result line plus the record that goes with it.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	record    map[string]interface{}
}

// runWorkload runs one workload, traced or not, and returns its metrics:
// the end-to-end ones untraced, the per-layer ones traced.
func runWorkload(e *env, name string, traced bool) (*outcome, error) {
	var out *outcome
	var err error
	switch name {
	case "point":
		out, err = runOnlineWorkload(e, onlineSpec{name: name, n: e.sz.PointN, h: 2, batch: 1}, traced)
	case "wide":
		out, err = runOnlineWorkload(e, onlineSpec{name: name, n: e.sz.PointN, h: 8, batch: 16}, traced)
	case "churn":
		out, err = runOnlineWorkload(e, onlineSpec{name: name, n: e.sz.ChurnN, h: 3, batch: 1, mutable: true}, traced)
	case "mrjoin":
		out, err = runJoinWorkload(e, traced)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := out.metrics[d.Name]; !ok {
			if !traced {
				return nil, fmt.Errorf("workload %s did not measure %s", name, d.Name)
			}
			out.metrics[d.Name] = 0
		}
	}
	for k, v := range out.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s: metric %s is %v", name, k, v)
		}
	}
	rec := out.record
	rec["workload"] = name
	rec["traced"] = traced
	rec["seed"] = e.seed
	rec["window_s"] = e.window.Seconds()
	rec["commit"] = commit()
	rec["go"] = runtime.Version()
	rec["nproc"] = runtime.NumCPU()
	rec["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rec["callers"] = callers
	return out, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) line(defs []metricDef) resultLine {
	l := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{o.metrics[d.Name], d.Unit}
	}
	return l
}

func manifest() ([]byte, error) {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // bound 0: the key is left out
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"},
		RunSeconds: runSeconds, Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	return append(data, '\n'), err
}

// newEnv prepares the scratch directory and builds the haserve of the repo at
// root into it. The streaming snapshot builder spools under TMPDIR, so that
// is pointed into the scratch directory too: a run writes nowhere else.
func newEnv(root, dir string, sz sizes, seed int64, window time.Duration) (*env, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return nil, err
	}
	bin, err := buildHaserve(root, dir)
	if err != nil {
		return nil, err
	}
	return &env{dir: dir, bin: bin, sz: sz, seed: seed, window: window}, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "point, wide, churn or mrjoin")
		seed     = flag.Int64("seed", 1, "every fixture derives from it")
		seconds  = flag.Int("seconds", runSeconds, "measured window")
		trace    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		check    = flag.Bool("check", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
		printMan = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printMan {
		data, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	scratch, err := os.MkdirTemp(mkScratchRoot(), "run-")
	if err != nil {
		fatal(err)
	}
	// A signal must not leave children or files behind: the deferred
	// clean-ups only run on a normal return, so turn the signal into one.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// Children die with the harness (Pdeathsig); the files go here.
		os.RemoveAll(scratch)
		os.Exit(1)
	}()
	lines, err := realMain(scratch, *workload, *seed, *seconds, *trace == 1, *check)
	// Clean up before printing: a reader that closes the pipe early kills
	// the harness at the first line it cannot write.
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

// mkScratchRoot returns .bench_build under the working directory, the one
// place in a checkout the benchmark writes.
func mkScratchRoot() string {
	root := ".bench_build"
	if err := os.MkdirAll(root, 0o755); err != nil {
		fatal(err)
	}
	return root
}

// realMain runs what the flags ask for and returns the lines to print: the
// run record, then the result.
func realMain(scratch, workload string, seed int64, seconds int, traced, check bool) ([]string, error) {
	// run.sh starts the harness at the root of the checkout.
	e, err := newEnv(".", scratch, fullSizes, seed, time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	if check {
		return nil, agreementCheck(e)
	}
	if traced {
		e.traceOut = filepath.Join(filepath.Dir(e.dir), "trace-"+workload+".json")
	}
	out, err := runWorkload(e, workload, traced)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rec, err := json.Marshal(map[string]interface{}{"record": out.record})
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(out.line(defs))
	if err != nil {
		return nil, err
	}
	return []string{string(rec), string(line)}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
