package mrjoin

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/hash"
	"haindex/internal/mapreduce"
	"haindex/internal/planner"
	"haindex/internal/vector"
)

// reducerEngines is every Options.Engine spelling a job accepts.
var reducerEngines = []string{"", "auto", "ha", "mih", "scan"}

// joinOutputs runs Options A, B, B's large-R path and the select job over g
// under opt and returns their pairs (the select's as pairs too) and engines.
func joinOutputs(t *testing.T, r, s []vector.Vec, g *GlobalIndex, pre *Preprocessed, opt Options) (map[string][]Pair, map[string]string) {
	t.Helper()
	pairs, engines := make(map[string][]Pair), make(map[string]string)
	a, err := HammingJoinA(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	pairs["A"], engines["A"] = a.Pairs, a.Engine
	b, err := HammingJoinB(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	pairs["B"], engines["B"] = b.Pairs, b.Engine
	bl, err := HammingJoinBLarge(r, s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	pairs["BLarge"], engines["BLarge"] = bl.Pairs, bl.Engine
	sel, err := HammingSelect(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	for sid, ids := range sel.IDs {
		if !slices.IsSorted(ids) {
			t.Fatalf("select query %d: ids %v not in id order", sid, ids)
		}
		for _, rid := range ids {
			pairs["Select"] = append(pairs["Select"], Pair{RID: rid, SID: sid})
		}
	}
	engines["Select"] = sel.Engine
	return pairs, engines
}

// TestReducerEnginesAgree: Options A, B, B's large-R path and the select job
// return the pairs ReferenceJoin does under every engine spelling, at 32 and
// 64 bits. A pin is the engine the result names; "" and "auto" name the
// forest plan's pick at the threshold, and building that plan once serves
// every later job over the same index.
func TestReducerEnginesAgree(t *testing.T) {
	r, s := testData(t, 320, 240)
	for _, bits := range []int{32, 64} {
		popt := testOptions()
		popt.Bits = bits
		pre, err := Preprocess(r, s, popt)
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceJoin(r, s, pre, popt.Threshold)
		if len(want) == 0 {
			t.Fatal("reference join empty; test data too sparse")
		}
		g, err := BuildGlobalIndex(r, pre, popt)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range reducerEngines {
			opt := popt
			opt.Engine = engine
			pairs, engines := joinOutputs(t, r, s, g, pre, opt)
			wantEngine := engine
			if engine == "" || engine == "auto" {
				rp, err := g.Plan()
				if err != nil {
					t.Fatal(err)
				}
				wantEngine = rp.Plan(opt.Threshold).Strategy.String()
			}
			for job, got := range pairs {
				if !equalPairs(got, want) {
					t.Errorf("bits=%d engine=%q %s: %d pairs, reference %d", bits, engine, job, len(got), len(want))
				}
				if engines[job] != wantEngine {
					t.Errorf("bits=%d engine=%q %s: result names engine %q, want %q", bits, engine, job, engines[job], wantEngine)
				}
			}
		}
		rp1, _ := g.Plan()
		rp2, _ := g.Plan()
		if rp1 != rp2 {
			t.Fatalf("bits=%d: a second Plan built a second plan", bits)
		}
	}
}

// TestPinnedHABuildsNoPlan: the paper's reproduction pins HA, and a job
// pinned to it searches the forest itself without building MIH or a plan.
func TestPinnedHABuildsNoPlan(t *testing.T) {
	r, s := testData(t, 200, 150)
	opt := testOptions()
	opt.Engine = "ha"
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	joinOutputs(t, r, s, g, pre, opt)
	if g.plan != nil {
		t.Fatal("a job pinned to HA built the forest's plan")
	}
}

// TestUnknownEngineRefused: a misspelt engine fails every join and select job
// before any task runs, naming the spelling.
func TestUnknownEngineRefused(t *testing.T) {
	r, s := testData(t, 60, 40)
	opt := testOptions()
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Engine = "btree"
	jobs := map[string]func() error{
		"A":      func() error { _, err := HammingJoinA(s, g, pre, opt); return err },
		"B":      func() error { _, err := HammingJoinB(s, g, pre, opt); return err },
		"BLarge": func() error { _, err := HammingJoinBLarge(r, s, g, pre, opt); return err },
		"Select": func() error { _, err := HammingSelect(s, g, pre, opt); return err },
	}
	for name, run := range jobs {
		if err := run(); err == nil || !strings.Contains(err.Error(), `"btree"`) {
			t.Errorf("%s: engine \"btree\" gave %v, want an error naming it", name, err)
		}
	}
	if g.plan != nil {
		t.Fatal("a refused job built the forest's plan")
	}
}

// TestReducerEnginesExactUnderFaults: with reduce attempts failing, retried,
// and a straggling reduce task speculated — so two attempts of one reducer
// search the plan at once — every job returns the failure-free pairs with the
// failure-free shuffle, planned and pinned to HA alike.
func TestReducerEnginesExactUnderFaults(t *testing.T) {
	r, s := testData(t, 260, 220)
	clean := testOptions()
	pre, err := Preprocess(r, s, clean)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceJoin(r, s, pre, clean.Threshold)
	for _, engine := range []string{"", "ha"} {
		opt := faultedOptions()
		opt.Engine = engine
		opt.Faults.Delay(mapreduce.ReduceTask, 1, 0, 40*time.Millisecond)
		opt.Speculation = mapreduce.Speculation{Enabled: true, MinCompleted: 2}
		g, err := BuildGlobalIndex(r, pre, opt)
		if err != nil {
			t.Fatal(err)
		}
		pairs, _ := joinOutputs(t, r, s, g, pre, opt)
		for job, got := range pairs {
			if !equalPairs(got, want) {
				t.Errorf("engine=%q %s under faults: %d pairs, reference %d", engine, job, len(got), len(want))
			}
		}
		cleanOpt := clean
		cleanOpt.Engine = engine
		a, err := HammingJoinA(s, g, pre, cleanOpt)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := HammingJoinA(s, g, pre, opt)
		if err != nil {
			t.Fatal(err)
		}
		if fa.Metrics.ShuffleBytes != a.Metrics.ShuffleBytes {
			t.Errorf("engine=%q: option A shuffle %d under faults, %d without", engine, fa.Metrics.ShuffleBytes, a.Metrics.ShuffleBytes)
		}
		if fa.Metrics.RetriedTasks == 0 || fa.Metrics.SpeculativeLaunched == 0 {
			t.Errorf("engine=%q: option A retried %d tasks and speculated %d, want both", engine, fa.Metrics.RetriedTasks, fa.Metrics.SpeculativeLaunched)
		}
	}
}

// TestConcurrentReducersShareOnePlan: jobs of every kind over one global
// index, run at once with many reducers and search workers each, build one
// plan between them and return the reference pairs. Run under -race by `make
// test-race`, it checks the once-built plan and the searchers every reducer
// binds to it.
func TestConcurrentReducersShareOnePlan(t *testing.T) {
	r, s := testData(t, 300, 240)
	opt := testOptions()
	opt.Partitions, opt.Nodes, opt.SearchWorkers = 8, 4, 2
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceJoin(r, s, pre, opt.Threshold)
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	errs := make(chan error, 4*rounds)
	plans := make(chan *ReducerPlan, 4*rounds)
	var wg sync.WaitGroup
	check := func(job string, run func() ([]Pair, error)) {
		defer wg.Done()
		got, err := run()
		if err == nil && !equalPairs(got, want) {
			err = fmt.Errorf("%s: %d pairs, reference %d", job, len(got), len(want))
		}
		rp, _ := g.Plan()
		plans <- rp
		errs <- err
	}
	for range rounds {
		wg.Add(4)
		go check("A", func() ([]Pair, error) {
			res, err := HammingJoinA(s, g, pre, opt)
			if err != nil {
				return nil, err
			}
			return res.Pairs, nil
		})
		go check("B", func() ([]Pair, error) {
			res, err := HammingJoinB(s, g, pre, opt)
			if err != nil {
				return nil, err
			}
			return res.Pairs, nil
		})
		go check("BLarge", func() ([]Pair, error) {
			res, err := HammingJoinBLarge(r, s, g, pre, opt)
			if err != nil {
				return nil, err
			}
			return res.Pairs, nil
		})
		go check("Select", func() ([]Pair, error) {
			res, err := HammingSelect(s, g, pre, opt)
			if err != nil {
				return nil, err
			}
			var pairs []Pair
			for sid, ids := range res.IDs {
				for _, rid := range ids {
					pairs = append(pairs, Pair{RID: rid, SID: sid})
				}
			}
			return pairs, nil
		})
	}
	wg.Wait()
	close(errs)
	close(plans)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	first := <-plans
	for rp := range plans {
		if rp != first || rp == nil {
			t.Fatal("concurrent jobs over one index did not share one plan")
		}
	}
}

// joinReduceShape is the mrjoin benchmark workload's reducer search: 30,000
// NUS-WIDE-like 225-d vectors in R, spectral-hashed to 64 bits and built into
// a forest of two Gray-range partitions, and the codes of 30,000 more drawn
// from the same clusters as S's probes (none when probes is false).
func joinReduceShape(tb testing.TB, probes bool) (*GlobalIndex, []bitvec.Code) {
	tb.Helper()
	const n = 30000
	all := dataset.Generate(dataset.NUSWide, 2*n, 2015)
	r := make([]vector.Vec, n)
	s := make([]vector.Vec, n)
	for i := range r {
		r[i], s[i] = all[2*i], all[2*i+1]
	}
	opt := Options{Bits: 64, Partitions: 2, Nodes: 2, Threshold: 3, Seed: 1}
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if !probes {
		return g, nil
	}
	return g, hash.HashAll(pre.Hash, s)
}

// TestForestPlanPicksMIH pins the premise of planning the join's reducers:
// on the mrjoin workload's shape the counted plan over the forest runs MIH at
// the join's h=3, and counts it cheaper than HA's walk.
func TestForestPlanPicksMIH(t *testing.T) {
	if raceEnabled {
		t.Skip("the counted plan is single-threaded; hashing 60k vectors under -race takes 20 s")
	}
	g, _ := joinReduceShape(t, false)
	rp, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	pl := rp.Plan(3)
	if pl.Strategy != planner.UseMIH {
		t.Fatalf("plan at h=3 is %s, want mih:\n%s", pl.Strategy, rp.Explain(3))
	}
	if pl.Cost[planner.UseMIH] >= pl.Cost[planner.UseHA] {
		t.Fatalf("MIH counted %.0f scanned groups, HA %.0f", pl.Cost[planner.UseMIH], pl.Cost[planner.UseHA])
	}
	t.Logf("%s(MIH build %v, plan %v)", rp.Explain(3), rp.MIHBuild, rp.Count)
}

// BenchmarkJoinReduce is a join reducer's search on the mrjoin workload's
// shape (joinReduceShape, h=3, one worker): "ha" is the paper's block walk of
// the forest, "planned" what a job over a fresh global index pays — MIH built
// over the forest's leaf arena, the plan counted, then the planned engine's
// search.
func BenchmarkJoinReduce(b *testing.B) {
	g, probes := joinReduceShape(b, true)
	b.Run("ha", func(b *testing.B) {
		b.ReportAllocs()
		var st core.SearchStats
		for i := 0; i < b.N; i++ {
			_, st = core.SearchBatch(g.Index, probes, 3, 1)
		}
		b.ReportMetric(float64(st.DistanceComputations)/float64(len(probes)), "dist/probe")
	})
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh := &GlobalIndex{Index: g.Index}
			idx, _, err := fresh.searchIndex(planner.UsePlan, 3)
			if err != nil {
				b.Fatal(err)
			}
			core.SearchBatch(idx, probes, 3, 1)
		}
	})
}
