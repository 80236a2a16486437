package mrjoin

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"haindex/internal/dataset"
	"haindex/internal/dfs"
	"haindex/internal/mapreduce"
)

// TestJoinExactAtEveryPartitionCount: at 1, 2, 3 and 16 partitions — 16
// leaves some of them empty — Options A and B and the select job over the
// forest of partition arenas equal ReferenceJoin over the very r and s the
// plans were given (float64 components float32 cannot hold, so a plan or a
// reference that skipped the wire rounding would flip bits), with the local
// arenas handed over in memory and through the DFS, failure-free and under
// the injected-fault plans. The forest read back from the DFS encodes byte
// for byte as the one handed over in memory, and the DFS read every byte once
// of what it wrote at its replication.
func TestJoinExactAtEveryPartitionCount(t *testing.T) {
	r, s := testData(t, 320, 240)
	for _, parts := range []int{1, 2, 3, 16} {
		popt := testOptions()
		popt.Partitions = parts
		pre, err := Preprocess(r, s, popt)
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceJoin(r, s, pre, popt.Threshold)
		if len(want) == 0 {
			t.Fatal("reference join empty; test data too sparse")
		}
		wantSelect := make([][]int, len(s))
		for _, p := range want {
			wantSelect[p.SID] = append(wantSelect[p.SID], p.RID)
		}
		for _, faults := range []bool{false, true} {
			var inMemory []byte
			for _, viaDFS := range []bool{false, true} {
				label := fmt.Sprintf("parts=%d faults=%v dfs=%v", parts, faults, viaDFS)
				opt := testOptions()
				if faults {
					opt = faultedOptions()
				}
				opt.Partitions = parts
				const replication = 2
				if viaDFS {
					opt.FS = dfs.New(replication)
				}
				g, err := BuildGlobalIndex(r, pre, opt)
				if err != nil {
					t.Fatal(err)
				}
				if g.Index.Len() != len(r) {
					t.Fatalf("%s: global index holds %d tuples, want %d", label, g.Index.Len(), len(r))
				}
				if parts == 16 && !slices.Contains(g.Metrics.ReducerRecords, 0) {
					t.Fatalf("%s: no partition is empty", label)
				}
				var img bytes.Buffer
				if err := g.Index.EncodeArena(&img, true); err != nil {
					t.Fatal(err)
				}
				if !viaDFS {
					inMemory = img.Bytes()
				} else {
					if !bytes.Equal(img.Bytes(), inMemory) {
						t.Fatalf("%s: the forest read back from the DFS is not the one handed over in memory", label)
					}
					if g.DFSRead == 0 || g.DFSWritten != replication*g.DFSRead {
						t.Fatalf("%s: DFS wrote %d bytes and read %d, want %dx", label, g.DFSWritten, g.DFSRead, replication)
					}
				}
				a, err := HammingJoinA(s, g, pre, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !equalPairs(a.Pairs, want) {
					t.Errorf("%s: option A %d pairs want %d", label, len(a.Pairs), len(want))
				}
				b, err := HammingJoinB(s, g, pre, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !equalPairs(b.Pairs, want) {
					t.Errorf("%s: option B %d pairs want %d", label, len(b.Pairs), len(want))
				}
				sel, err := HammingSelect(s, g, pre, opt)
				if err != nil {
					t.Fatal(err)
				}
				for q := range wantSelect {
					got := append([]int(nil), sel.IDs[q]...)
					exp := append([]int(nil), wantSelect[q]...)
					slices.Sort(got)
					slices.Sort(exp)
					if !slices.Equal(got, exp) {
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
