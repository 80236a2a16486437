package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

var tinySizes = sizes{
	PointN: 2000, ChurnN: 2000, LiveCap: 2 * memtableMax, JoinN: 600, JoinReps: 1,
	SetupCycles: 2, Verify: 10, Warmup: 50 * time.Millisecond,
	LoadSlice: 100 * time.Millisecond, ScanSlice: 20 * time.Millisecond, SampleEvery: 4, FinalChecks: 50, LayerProbes: 50,
}

// applies says whether a per-layer metric is measured on a workload; the
// others read 0 there. README.md carries the same table in words.
func applies(workload, metric string) bool {
	layer := metric
	if i := strings.IndexByte(metric, '.'); i >= 0 {
		layer = metric[:i]
	}
	switch workload {
	case "point", "wide":
		switch layer {
		case "lsm", "mapreduce", "mrjoin", "hash":
			return false
		}
		return !strings.HasPrefix(metric, "client.write_")
	case "churn":
		switch layer {
		case "planner", "mih", "mapreduce", "mrjoin", "hash":
			return false
		}
		return metric != "wire.map_snapshot_s"
	default: // mrjoin
		switch layer {
		case "mapreduce", "mrjoin", "hash", "core", "gray", "bitvec", "trace_overhead_ratio":
			return true
		}
		return metric == "histo.pivots_s" || metric == "client.request_p50_us" || metric == "client.search_qps"
	}
}

// mayBeZero lists measured figures that are legitimately 0 (or, for the
// overhead, below it) on a healthy run.
var mayBeZero = map[string]bool{
	"client.retries": true, "server.errors": true, "histo.pruned_ratio": true,
	"planner.hit_ratio": true, "planner.pick_overhead_ns": true,
	"client.self_us": true, "server.self_us": true, "server.admission_p50_ns": true,
}

// TestSmoke runs every workload at tiny scale, untraced and traced, against
// real haserve children: the oracle must pass and every metric BENCHMARK.json
// names must come out finite, and positive where it is measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns haserve children")
	}
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	e, err := newEnv("..", dir, tinySizes, 7, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
				e.traceOut = dir + "/trace.json"
			}
			t.Run(name, func(t *testing.T) {
				out, err := runWorkload(e, w.Name, traced)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted < 1 {
					t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					v, ok := out.metrics[d.Name]
					switch {
					case !ok || math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("%s = %v (present %v)", d.Name, v, ok)
					case traced && !applies(w.Name, d.Name):
						if v != 0 {
							t.Errorf("%s = %v on a workload that does not measure it", d.Name, v)
						}
					case v <= 0 && !mayBeZero[d.Name]:
						t.Errorf("%s = %v, want > 0", d.Name, v)
					case v < 0 && d.Name != "planner.pick_overhead_ns":
						t.Errorf("%s = %v, want >= 0", d.Name, v)
					}
				}
				for _, key := range []string{"commit", "go", "nproc", "gomaxprocs", "callers", "n", "bits", "h", "batch", "shards", "seed", "window_s"} {
					if _, ok := out.record[key]; !ok {
						t.Errorf("run record lacks %q", key)
					}
				}
				if !traced {
					return
				}
				data, err := os.ReadFile(e.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var spans []span
				if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
					t.Fatalf("trace.json: %d spans, %v", len(spans), err)
				}
				checkSpanSums(t, spans)
			})
		}
	}
}

// checkSpanSums asserts the acceptance rule on real traces: every span's self
// time is non-negative and, with its children's cover, makes up its duration.
func checkSpanSums(t *testing.T, spans []span) {
	t.Helper()
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		if self < 0 || self+covered(s.Start, s.End, kids[s.ID]) != s.End-s.Start {
			t.Fatalf("span %d %q: self %d does not complete duration %d", s.ID, s.Name, self, s.End-s.Start)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A request of 100 with route [0,5], encode [5,8], two parallel legs
	// [8,60] and [8,40], decode [60,70]; the slow leg holds an engine span
	// [10,30] and one that overruns it [50,90].
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 0, End: 5},
		{ID: 2, Parent: 0, Start: 5, End: 8},
		{ID: 3, Parent: 0, Start: 8, End: 60},
		{ID: 4, Parent: 0, Start: 8, End: 40},
		{ID: 5, Parent: 0, Start: 60, End: 70},
		{ID: 6, Parent: 3, Start: 10, End: 30},
		{ID: 7, Parent: 3, Start: 50, End: 90},
	}
	self := selfTimes(spans)
	want := []int64{30, 5, 3, 22, 32, 10, 20, 40}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, self[i], want[i])
		}
	}
	// The request's parts sum to the whole: its self time plus the critical
	// path through its children (parallel legs counted once).
	if got := self[0] + 5 + 3 + 52 + 10; got != 100 {
		t.Errorf("parts sum to %d, want 100", got)
	}
	checkSpanSums(t, spans)
}

func TestTail(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		wantP float64
		wantV int64
	}{
		{1000, 99, 990}, // exactly ten samples beyond p99
		{999, 95, 950},  // nine beyond p99: fall back
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10}, // no tail has ten beyond it
	} {
		p, v := tail(seq(c.n), 99)
		if p != c.wantP || v != c.wantV {
			t.Errorf("n=%d: p%v = %d, want p%v = %d", c.n, p, v, c.wantP, c.wantV)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// TestManifest keeps BENCHMARK.json and the tables in main.go one list.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale: regenerate with bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over the contract's limits", d.Name)
		}
		seen[d.Name] = true
	}
}
