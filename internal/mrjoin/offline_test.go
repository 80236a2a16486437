package mrjoin

import (
	"fmt"
	"testing"

	"haindex/internal/dataset"
	"haindex/internal/dfs"
	"haindex/internal/mapreduce"
)

// TestFrozenPointerReferenceAgree: Options A and B and the select job return
// the same answers over the frozen index as over the pointer index (a
// GlobalIndex with Frozen cleared), and both equal ReferenceJoin over the very
// r and s the plans were given — float64 components float32 cannot hold, so a
// plan or a reference that skipped the wire rounding would flip bits — with
// the local indexes handed over in memory and through the DFS, failure-free
// and under the injected-fault plans.
func TestFrozenPointerReferenceAgree(t *testing.T) {
	r, s := testData(t, 320, 240)
	pre, err := Preprocess(r, s, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceJoin(r, s, pre, testOptions().Threshold)
	if len(want) == 0 {
		t.Fatal("reference join empty; test data too sparse")
	}
	wantSelect := make([][]int, len(s))
	for _, p := range want {
		wantSelect[p.SID] = append(wantSelect[p.SID], p.RID)
	}
	for _, faults := range []bool{false, true} {
		for _, viaDFS := range []bool{false, true} {
			opt := testOptions()
			if faults {
				opt = faultedOptions()
			}
			if viaDFS {
				opt.FS = dfs.New(2)
			}
			g, err := BuildGlobalIndex(r, pre, opt)
			if err != nil {
				t.Fatal(err)
			}
			if g.Frozen == nil || g.Frozen.Len() != g.Index.Len() {
				t.Fatalf("faults=%v dfs=%v: global index carries no frozen form of its %d tuples", faults, viaDFS, g.Index.Len())
			}
			pointer := *g
			pointer.Frozen = nil
			for name, gi := range map[string]*GlobalIndex{"frozen": g, "pointer": &pointer} {
				label := fmt.Sprintf("faults=%v dfs=%v %s", faults, viaDFS, name)
				a, err := HammingJoinA(s, gi, pre, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !equalPairs(a.Pairs, want) {
					t.Errorf("%s: option A %d pairs want %d", label, len(a.Pairs), len(want))
				}
				b, err := HammingJoinB(s, gi, pre, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !equalPairs(b.Pairs, want) {
					t.Errorf("%s: option B %d pairs want %d", label, len(b.Pairs), len(want))
				}
				sel, err := HammingSelect(s, gi, pre, opt)
				if err != nil {
					t.Fatal(err)
				}
				for q := range wantSelect {
					got := make([]Pair, len(sel.IDs[q]))
					for i, rid := range sel.IDs[q] {
						got[i] = Pair{RID: rid, SID: q}
					}
					exp := make([]Pair, len(wantSelect[q]))
					for i, rid := range wantSelect[q] {
						exp[i] = Pair{RID: rid, SID: q}
					}
					if !equalPairs(got, exp) {
						t.Fatalf("%s: select query %d: %d ids want %d", label, q, len(got), len(exp))
					}
				}
			}
		}
	}
}

// nuswideInput is n NUS-WIDE-like vectors, a hash learned on them, and their
// map input records.
func nuswideInput(tb testing.TB, n int) (*Preprocessed, []mapreduce.KV) {
	tb.Helper()
	data := dataset.Generate(dataset.NUSWide, n, 5)
	pre, err := Preprocess(data, nil, Options{Bits: 64, Partitions: 4, SampleRate: 0.5, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return pre, VecInput(data)
}

// TestRouteMapperAllocs: a mapped record costs one allocation, its code; the
// decoded vector and the emitted bytes come out of pooled storage whose
// refills amortise to far less than one allocation a record.
func TestRouteMapperAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	pre, input := nuswideInput(t, 512)
	for _, roundRobin := range []int{0, 4} {
		mapper := routeMapper(pre, roundRobin)
		emitted := 0
		emit := func(kv mapreduce.KV) { emitted += len(kv.Key) + len(kv.Value) }
		perPass := testing.AllocsPerRun(20, func() {
			for _, in := range input {
				if err := mapper(in, emit); err != nil {
					t.Fatal(err)
				}
			}
		})
		if perRecord := perPass / float64(len(input)); perRecord > 1.01 {
			t.Errorf("roundRobin=%d: %.3f allocations per mapped record, want <= 1", roundRobin, perRecord)
		}
		if emitted == 0 {
			t.Fatal("mapper emitted nothing")
		}
	}
}

// BenchmarkRouteMapper is one map task's work per input record — decode the
// shipped 225-d vector, hash it to 64 bits, route, emit — as every job of the
// offline pipeline pays it.
func BenchmarkRouteMapper(b *testing.B) {
	pre, input := nuswideInput(b, 2048)
	mapper := routeMapper(pre, 0)
	emit := func(mapreduce.KV) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mapper(input[i%len(input)], emit); err != nil {
			b.Fatal(err)
		}
	}
}
