package mrjoin

import (
	"slices"
	"testing"
	"time"

	"haindex/internal/dfs"
	"haindex/internal/mapreduce"
)

// faultedOptions injects failures into >=25% of map and reduce tasks of
// every job a pipeline runs, with a straggler delay thrown in.
func faultedOptions() Options {
	opt := testOptions()
	opt.Faults = mapreduce.NewFaultPlan().
		FailEvery(mapreduce.MapTask, 3).
		FailEvery(mapreduce.ReduceTask, 2).
		Delay(mapreduce.MapTask, 1, 0, time.Millisecond)
	opt.Retry = mapreduce.RetryPolicy{Backoff: 50 * time.Microsecond}
	return opt
}

// TestJoinsExactUnderFaults is the acceptance check of the failure model:
// with failures injected into a large fraction of every job's tasks, both
// MRHA options must return byte-identical pairs and identical shuffle
// volumes, while the attempt counters show the re-execution that happened.
func TestJoinsExactUnderFaults(t *testing.T) {
	r, s := testData(t, 260, 220)

	clean := testOptions()
	pre, err := Preprocess(r, s, clean)
	if err != nil {
		t.Fatal(err)
	}
	gClean, err := BuildGlobalIndex(r, pre, clean)
	if err != nil {
		t.Fatal(err)
	}
	aClean, err := HammingJoinA(s, gClean, pre, clean)
	if err != nil {
		t.Fatal(err)
	}
	bClean, err := HammingJoinB(s, gClean, pre, clean)
	if err != nil {
		t.Fatal(err)
	}

	faulted := faultedOptions()
	faulted.FS = dfs.New(0) // exercise idempotent DFS writes under re-execution
	g, err := BuildGlobalIndex(r, pre, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if g.Metrics.ShuffleBytes != gClean.Metrics.ShuffleBytes {
		t.Fatalf("build shuffle changed under faults: %d vs %d", g.Metrics.ShuffleBytes, gClean.Metrics.ShuffleBytes)
	}
	if g.Metrics.Attempts <= int64(g.Metrics.Tasks()) {
		t.Fatalf("build job recorded no extra attempts: %d for %d tasks", g.Metrics.Attempts, g.Metrics.Tasks())
	}
	if g.Metrics.RetriedTasks == 0 {
		t.Fatal("build job recorded no retried tasks")
	}

	a, err := HammingJoinA(s, g, pre, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(a.Pairs, aClean.Pairs) {
		t.Fatalf("Option A pairs changed under faults: %d vs %d", len(a.Pairs), len(aClean.Pairs))
	}
	if a.Metrics.ShuffleBytes != aClean.Metrics.ShuffleBytes {
		t.Fatalf("Option A shuffle changed under faults: %d vs %d", a.Metrics.ShuffleBytes, aClean.Metrics.ShuffleBytes)
	}
	if a.Metrics.Attempts <= int64(a.Metrics.Tasks()) {
		t.Fatalf("Option A recorded no extra attempts: %d for %d tasks", a.Metrics.Attempts, a.Metrics.Tasks())
	}

	b, err := HammingJoinB(s, g, pre, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(b.Pairs, bClean.Pairs) {
		t.Fatalf("Option B pairs changed under faults: %d vs %d", len(b.Pairs), len(bClean.Pairs))
	}
	if b.Metrics.ShuffleBytes != bClean.Metrics.ShuffleBytes {
		t.Fatalf("Option B shuffle changed under faults: %d vs %d", b.Metrics.ShuffleBytes, bClean.Metrics.ShuffleBytes)
	}
	if b.Metrics.Attempts <= int64(b.Metrics.Tasks()) {
		t.Fatalf("Option B recorded no extra attempts: %d for %d tasks", b.Metrics.Attempts, b.Metrics.Tasks())
	}
}

// TestSelectBLargePMHExactUnderFaults carries the failure-model check to the
// jobs TestJoinsExactUnderFaults does not run: the select job, Option B's
// large-R hash-join stage and the PMH join each re-run tasks under
// faultedOptions and return the clean run's output over the clean run's
// shuffle.
func TestSelectBLargePMHExactUnderFaults(t *testing.T) {
	r, s := testData(t, 260, 220)
	clean := testOptions()
	pre, err := Preprocess(r, s, clean)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, clean)
	if err != nil {
		t.Fatal(err)
	}
	faulted := faultedOptions()
	extra := func(m mapreduce.Metrics) int64 { return m.Attempts - int64(m.Tasks()) }
	check := func(job string, m, cleanM mapreduce.Metrics) {
		t.Helper()
		if m.ShuffleBytes != cleanM.ShuffleBytes {
			t.Fatalf("%s shuffle changed under faults: %d vs %d", job, m.ShuffleBytes, cleanM.ShuffleBytes)
		}
		if extra(m) <= 0 {
			t.Fatalf("%s recorded no extra attempts: %d for %d tasks", job, m.Attempts, m.Tasks())
		}
	}

	selClean, err := HammingSelect(s, g, pre, clean)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := HammingSelect(s, g, pre, faulted)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sel.IDs {
		got, want := slices.Clone(sel.IDs[i]), slices.Clone(selClean.IDs[i])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("select query %d changed under faults: %v vs %v", i, got, want)
		}
	}
	check("select", sel.Metrics, selClean.Metrics)

	// BLarge's first stage is Option B's join job, so what BLarge attempts
	// beyond Option B under the same faults is its hash-join stage's.
	bLargeClean, err := HammingJoinBLarge(r, s, g, pre, clean)
	if err != nil {
		t.Fatal(err)
	}
	bLarge, err := HammingJoinBLarge(r, s, g, pre, faulted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HammingJoinB(s, g, pre, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(bLarge.Pairs, bLargeClean.Pairs) {
		t.Fatalf("Option B large-R pairs changed under faults: %d vs %d", len(bLarge.Pairs), len(bLargeClean.Pairs))
	}
	check("Option B large-R", bLarge.Metrics, bLargeClean.Metrics)
	if extra(bLarge.Metrics) <= extra(b.Metrics) {
		t.Fatalf("the hash-join stage recorded no extra attempts: %d beyond Option B's %d", extra(bLarge.Metrics), extra(b.Metrics))
	}

	pmhClean, err := PMHJoin(r, s, pre, 10, clean)
	if err != nil {
		t.Fatal(err)
	}
	pmh, err := PMHJoin(r, s, pre, 10, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(pmh.Pairs, pmhClean.Pairs) {
		t.Fatalf("PMH pairs changed under faults: %d vs %d", len(pmh.Pairs), len(pmhClean.Pairs))
	}
	check("PMH", pmh.Metrics, pmhClean.Metrics)
}

// TestPGBJExactUnderFaults: the exact kNN-join baseline also re-executes
// cleanly (its reducers' shared-state writes are idempotent).
func TestPGBJExactUnderFaults(t *testing.T) {
	r, s := testData(t, 120, 80)
	clean, err := PGBJ(r, s, 5, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := PGBJ(r, s, 5, faultedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(faulted.Neighbors) != len(clean.Neighbors) {
		t.Fatalf("result lists: %d vs %d", len(faulted.Neighbors), len(clean.Neighbors))
	}
	for sid, want := range clean.Neighbors {
		got := faulted.Neighbors[sid]
		if len(got) != len(want) {
			t.Fatalf("sid %d: %d vs %d neighbors", sid, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sid %d neighbor %d: %+v vs %+v", sid, i, got[i], want[i])
			}
		}
	}
	if faulted.Metrics.ShuffleBytes != clean.Metrics.ShuffleBytes {
		t.Fatalf("PGBJ shuffle changed under faults: %d vs %d", faulted.Metrics.ShuffleBytes, clean.Metrics.ShuffleBytes)
	}
	if faulted.Metrics.Attempts <= int64(faulted.Metrics.Tasks()) {
		t.Fatalf("PGBJ recorded no extra attempts: %d for %d tasks", faulted.Metrics.Attempts, faulted.Metrics.Tasks())
	}
}

// TestPipelineMetricsSkewSurvivesAdd: the 3-phase pipeline's accumulated
// metrics keep every job's reducer counts, so end-to-end skew is reportable.
func TestPipelineMetricsSkewSurvivesAdd(t *testing.T) {
	r, s := testData(t, 200, 150)
	opt := testOptions()
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	join, err := HammingJoinA(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	var total mapreduce.Metrics
	total.Add(g.Metrics)
	total.Add(join.Metrics)
	if total.Skew() == 0 {
		t.Fatal("pipeline skew lost in Metrics.Add")
	}
	if len(total.ReducerRecords) != len(g.Metrics.ReducerRecords)+len(join.Metrics.ReducerRecords) {
		t.Fatalf("reducer records not concatenated: %d", len(total.ReducerRecords))
	}
}
