package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps injected-failure tests from sleeping through real backoff.
var fastRetry = RetryPolicy{Backoff: 50 * time.Microsecond}

// countJob is a wordcount-shaped job over synthetic input.
func countJob(name string, mappers, reducers, nodes int) (Config, []KV) {
	input := make([]KV, 600)
	for i := range input {
		input[i] = kv(fmt.Sprintf("k%02d", i%37), fmt.Sprintf("v%d", i))
	}
	cfg := Config{
		Name:     name,
		Mappers:  mappers,
		Reducers: reducers,
		Nodes:    nodes,
		Map:      func(in KV, emit func(KV)) error { emit(in); return nil },
		Reduce: func(key []byte, values [][]byte, emit func(KV)) error {
			emit(KV{Key: key, Value: []byte(strconv.Itoa(len(values)))})
			return nil
		},
	}
	return cfg, input
}

func runsEqual(t *testing.T, a, b []KV) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("output sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("outputs differ at %d: %q=%q vs %q=%q", i, a[i].Key, a[i].Value, b[i].Key, b[i].Value)
		}
	}
}

func TestRetryAfterInjectedFailure(t *testing.T) {
	cfg, input := countJob("retry", 8, 4, 4)
	cfg.Retry = fastRetry
	clean, cleanM, err := Run(cfg, input)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Faults = NewFaultPlan().
		Fail(MapTask, 0, 0).
		Fail(MapTask, 3, 0).
		Fail(ReduceTask, 1, 0).
		Fail(ReduceTask, 1, 1) // the same reduce task fails twice
	out, m, err := Run(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	runsEqual(t, clean, out)
	// The volumes the runtime reported when the shuffle still walked every
	// record; they now come from the sums the map attempts return.
	if m.ShuffleBytes != 8890 || m.ShuffleRecords != 600 || m.WastedBytes != 2399 {
		t.Fatalf("accounting moved: shuffle %d bytes / %d records, wasted %d; want 8890 / 600, 2399",
			m.ShuffleBytes, m.ShuffleRecords, m.WastedBytes)
	}
	if m.ShuffleBytes != cleanM.ShuffleBytes || m.ShuffleRecords != cleanM.ShuffleRecords {
		t.Fatalf("shuffle changed under failures: %d/%d vs %d/%d",
			m.ShuffleBytes, m.ShuffleRecords, cleanM.ShuffleBytes, cleanM.ShuffleRecords)
	}
	if want := int64(m.Tasks() + 4); m.Attempts != want {
		t.Fatalf("attempts = %d want %d", m.Attempts, want)
	}
	if m.RetriedTasks != 3 {
		t.Fatalf("retried tasks = %d want 3", m.RetriedTasks)
	}
	if m.WastedBytes == 0 {
		t.Fatal("injected failures produced no wasted bytes")
	}
	if cleanM.Attempts != int64(cleanM.Tasks()) || cleanM.WastedBytes != 0 {
		t.Fatalf("clean run has failure metrics: %+v", cleanM)
	}
}

func TestRetriesExhausted(t *testing.T) {
	cfg, input := countJob("exhausted", 4, 2, 4)
	cfg.Retry = RetryPolicy{MaxAttempts: 3, Backoff: 50 * time.Microsecond}
	plan := NewFaultPlan()
	for attempt := 0; attempt < 3; attempt++ {
		plan.Fail(MapTask, 1, attempt)
	}
	cfg.Faults = plan
	_, m, err := Run(cfg, input)
	if err == nil {
		t.Fatal("expected job failure after exhausting the attempt budget")
	}
	if !strings.Contains(err.Error(), "map task 1") {
		t.Fatalf("err = %v", err)
	}
	if m.Attempts < 3 {
		t.Fatalf("attempts = %d, want >= 3", m.Attempts)
	}
}

// TestFaultExactnessProperty is the property test: across randomized-shape
// jobs, injected failures plus retries must produce byte-identical output
// and identical shuffle accounting to the failure-free run.
func TestFaultExactnessProperty(t *testing.T) {
	// Per trial, the bytes the failed attempts emitted, as the runtime
	// charged them before the shuffle took its counts from the map attempts.
	wasted := []int64{3124, 3815, 3978, 3211, 3469, 3563}
	for trial := 0; trial < 6; trial++ {
		mappers := 3 + trial*2
		reducers := 2 + trial
		cfg, input := countJob(fmt.Sprintf("prop-%d", trial), mappers, reducers, 4)
		cfg.Retry = fastRetry
		clean, cleanM, err := Run(cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		// >= 20% of both task kinds fail; a couple of tasks also straggle.
		cfg.Faults = NewFaultPlan().
			FailEvery(MapTask, 3).
			FailEvery(ReduceTask, 2).
			Delay(MapTask, 1, 0, 2*time.Millisecond).
			Delay(ReduceTask, 0, 1, time.Millisecond)
		out, m, err := Run(cfg, input)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		runsEqual(t, clean, out)
		if m.ShuffleBytes != 8890 || m.ShuffleRecords != 600 || m.WastedBytes != wasted[trial] {
			t.Fatalf("trial %d: accounting moved: shuffle %d bytes / %d records, wasted %d; want 8890 / 600, %d",
				trial, m.ShuffleBytes, m.ShuffleRecords, m.WastedBytes, wasted[trial])
		}
		if m.ShuffleBytes != cleanM.ShuffleBytes ||
			m.ShuffleRecords != cleanM.ShuffleRecords ||
			m.OutputRecords != cleanM.OutputRecords {
			t.Fatalf("trial %d: cost accounting changed under faults", trial)
		}
		if fmt.Sprint(m.ReducerRecords) != fmt.Sprint(cleanM.ReducerRecords) {
			t.Fatalf("trial %d: reducer records changed: %v vs %v", trial, m.ReducerRecords, cleanM.ReducerRecords)
		}
		if m.Attempts <= int64(m.Tasks()) {
			t.Fatalf("trial %d: attempts %d not above task count %d", trial, m.Attempts, m.Tasks())
		}
		if m.RetriedTasks == 0 || m.WastedBytes == 0 {
			t.Fatalf("trial %d: failure metrics empty: %+v", trial, m)
		}
	}
}

func TestSpeculativeExecution(t *testing.T) {
	const stall = 250 * time.Millisecond
	cfg, input := countJob("speculate", 8, 4, 8)
	cfg.Retry = fastRetry
	cfg.Faults = NewFaultPlan().Delay(MapTask, 0, 0, stall)

	clean, _, err := Run(cfg, input)
	if err != nil {
		t.Fatal(err)
	}

	slow := cfg
	_, slowM, err := Run(slow, input)
	if err != nil {
		t.Fatal(err)
	}
	if slowM.Wall < stall {
		t.Fatalf("without speculation the stall must dominate: wall %v < %v", slowM.Wall, stall)
	}

	fast := cfg
	fast.Speculation = Speculation{Enabled: true, MinCompleted: 2}
	out, fastM, err := Run(fast, input)
	if err != nil {
		t.Fatal(err)
	}
	runsEqual(t, clean, out)
	if fastM.SpeculativeLaunched == 0 || fastM.SpeculativeWon == 0 {
		t.Fatalf("no speculation recorded: %+v", fastM)
	}
	if fastM.Wall >= stall {
		t.Fatalf("speculation did not beat the straggler: wall %v >= %v", fastM.Wall, stall)
	}
	if fastM.Attempts <= int64(fastM.Tasks()) {
		t.Fatalf("speculative attempts not counted: %d attempts, %d tasks", fastM.Attempts, fastM.Tasks())
	}
}

// TestConcurrentMapErrors exercises simultaneous failures in several map
// tasks (with others succeeding concurrently); the job must deterministically
// report the lowest-indexed task's error. Run under -race by `make test-race`.
func TestConcurrentMapErrors(t *testing.T) {
	input := make([]KV, 64)
	for i := range input {
		input[i] = kv(fmt.Sprintf("k%02d", i), "v")
	}
	var calls atomic.Int64
	cfg := Config{
		Name:    "concurrent-errors",
		Mappers: 16,
		Nodes:   8,
		Retry:   RetryPolicy{MaxAttempts: 1},
		Map: func(in KV, emit func(KV)) error {
			calls.Add(1)
			// Tasks 3, 7, 11 fail (each split holds 4 consecutive records).
			i, _ := strconv.Atoi(string(in.Key[1:]))
			if task := i / 4; task == 3 || task == 7 || task == 11 {
				return fmt.Errorf("task %d boom", task)
			}
			emit(in)
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit func(KV)) error {
			emit(KV{Key: key})
			return nil
		},
	}
	var first string
	for round := 0; round < 4; round++ {
		_, _, err := Run(cfg, input)
		if err == nil {
			t.Fatal("expected error")
		}
		if !strings.Contains(err.Error(), "map task 3") {
			t.Fatalf("round %d: non-deterministic error choice: %v", round, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("round %d: error changed: %q vs %q", round, err.Error(), first)
		}
	}
	if calls.Load() == 0 {
		t.Fatal("map never ran")
	}
}

func TestMetricsAddKeepsTaskData(t *testing.T) {
	// Regression: Add used to drop task times and per-reducer counts, so a
	// multi-job pipeline reported Skew() == 0 (or only the last job's).
	a := Metrics{
		MapTaskTimes:    []time.Duration{time.Millisecond},
		ReduceTaskTimes: []time.Duration{2 * time.Millisecond},
		ReducerRecords:  []int64{30, 10},
	}
	a.Add(Metrics{
		MapTaskTimes:    []time.Duration{3 * time.Millisecond, 4 * time.Millisecond},
		ReduceTaskTimes: []time.Duration{5 * time.Millisecond},
		ReducerRecords:  []int64{20, 20},
		Attempts:        7,
		RetriedTasks:    1,
		WastedBytes:     128,
	})
	if len(a.MapTaskTimes) != 3 || len(a.ReduceTaskTimes) != 2 || len(a.ReducerRecords) != 4 {
		t.Fatalf("task data dropped: %+v", a)
	}
	if got, want := a.Skew(), 30.0/20.0; got != want {
		t.Fatalf("skew = %v want %v", got, want)
	}
	if a.Attempts != 7 || a.RetriedTasks != 1 || a.WastedBytes != 128 {
		t.Fatalf("failure counters dropped: %+v", a)
	}
}

func TestTwoJobPipelineSkewNonzero(t *testing.T) {
	cfg, input := countJob("pipeline", 4, 4, 4)
	var total Metrics
	for job := 0; job < 2; job++ {
		_, m, err := Run(cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(m)
	}
	if total.Skew() == 0 {
		t.Fatal("two-job pipeline reports zero skew")
	}
	if len(total.ReducerRecords) != 8 || len(total.MapTaskTimes) != 8 || len(total.ReduceTaskTimes) != 8 {
		t.Fatalf("per-task data not concatenated: %d reducers, %d map times, %d reduce times",
			len(total.ReducerRecords), len(total.MapTaskTimes), len(total.ReduceTaskTimes))
	}
}

func TestHashPartitionGuardAndParity(t *testing.T) {
	for _, n := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("HashPartition(%d) did not panic", n)
				}
			}()
			HashPartition([]byte("k"), n)
		}()
	}
	// The inlined FNV-1a must agree with the stdlib implementation the
	// partitioner previously allocated per record.
	for _, key := range []string{"", "a", "the quick brown fox", "\x00\xff\x10"} {
		for _, n := range []int{1, 2, 7, 64} {
			h := fnv.New32a()
			h.Write([]byte(key))
			want := int(h.Sum32() % uint32(n))
			if got := HashPartition([]byte(key), n); got != want {
				t.Fatalf("HashPartition(%q, %d) = %d want %d", key, n, got, want)
			}
		}
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var p *FaultPlan
	if f := p.fault(MapTask, 0, 0); f.Fail || f.Delay != 0 {
		t.Fatalf("nil plan injected %+v", f)
	}
	plan := NewFaultPlan().FailEvery(ReduceTask, 2).Delay(MapTask, 1, 0, time.Millisecond)
	if f := plan.fault(ReduceTask, 2, 0); !f.Fail {
		t.Fatal("FailEvery missed task 2")
	}
	if f := plan.fault(ReduceTask, 2, 1); f.Fail {
		t.Fatal("FailEvery must only hit attempt 0")
	}
	if f := plan.fault(ReduceTask, 1, 0); f.Fail {
		t.Fatal("FailEvery hit a non-multiple task")
	}
	if f := plan.fault(MapTask, 1, 0); f.Delay != time.Millisecond {
		t.Fatalf("delay entry lost: %+v", f)
	}
	plan.FailEvery(ReduceTask, 0)
	if f := plan.fault(ReduceTask, 2, 0); f.Fail {
		t.Fatal("FailEvery(0) did not clear the rule")
	}
}

// TestDelayedTaskStillExact: a pure straggler (delay, no failure) changes
// only wall time, never output or attempts.
func TestDelayedTaskStillExact(t *testing.T) {
	cfg, input := countJob("delayed", 4, 2, 4)
	clean, _, err := Run(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = NewFaultPlan().Delay(MapTask, 1, 0, 5*time.Millisecond)
	out, m, err := Run(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	runsEqual(t, clean, out)
	if m.Attempts != int64(m.Tasks()) || m.RetriedTasks != 0 {
		t.Fatalf("delay alone changed attempt accounting: %+v", m)
	}
	if m.MapTaskTimes[1] < 5*time.Millisecond {
		t.Fatalf("delay not reflected in task time: %v", m.MapTaskTimes[1])
	}
}

func TestErrorsStillWrapped(t *testing.T) {
	boom := errors.New("boom")
	cfg := Config{
		Name:  "wrap",
		Retry: fastRetry,
		Map:   func(in KV, emit func(KV)) error { return boom },
	}
	_, _, err := Run(cfg, []KV{kv("a", "b")})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
