package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"
)

// referenceSort is the order Run promises, written the way the runtime used
// to produce it: one reflection sort over all the records.
func referenceSort(kvs []KV) {
	sort.SliceStable(kvs, func(i, j int) bool {
		if c := bytes.Compare(kvs[i].Key, kvs[j].Key); c != 0 {
			return c < 0
		}
		return bytes.Compare(kvs[i].Value, kvs[j].Value) < 0
	})
}

// TestMergeRunsEqualsGlobalSort: sorting each run and merging them is a sort
// of the concatenation — over random run counts and lengths, empty runs,
// keys drawn from a small alphabet so that keys and whole records repeat
// within and across runs, and prefixes of one another.
func TestMergeRunsEqualsGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 200; trial++ {
		runs := make([][]KV, rng.Intn(9))
		var all []KV
		for r := range runs {
			if rng.Intn(4) == 0 {
				continue // an empty reducer
			}
			n := rng.Intn(40)
			for i := 0; i < n; i++ {
				rec := kv(fmt.Sprintf("k%s", "aab"[:rng.Intn(4)]), strconv.Itoa(rng.Intn(5)))
				runs[r] = append(runs[r], rec)
				all = append(all, rec)
			}
			sortKVs(runs[r])
		}
		referenceSort(all)
		runsEqual(t, all, mergeRuns(runs))
	}
}

// TestPerTaskSortMatchesGlobalSort drives whole jobs: random records with
// repeating keys, reducers that emit several records per key group (some
// byte-identical across reducers), more reducers than keys so that some stay
// empty, failure-free and under a fault plan that makes reduce attempts fail,
// straggle and race speculative backups. The output must be the reference
// sort of what an in-test simulation of the job emits, and the shuffle
// accounting must not depend on the failure model.
func TestPerTaskSortMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	for trial := 0; trial < 12; trial++ {
		nKeys := 1 + rng.Intn(12)
		input := make([]KV, 50+rng.Intn(400))
		for i := range input {
			input[i] = kv(fmt.Sprintf("key-%02d", rng.Intn(nKeys)), "1")
		}
		sum := func(key []byte, values [][]byte, emit func(KV)) error {
			total := 0
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				total += n
			}
			emit(KV{Key: key, Value: []byte(strconv.Itoa(total))})
			return nil
		}
		cfg := Config{
			Name:     fmt.Sprintf("merge-prop-%d", trial),
			Mappers:  1 + rng.Intn(6),
			Reducers: 1 + rng.Intn(16),
			Nodes:    4,
			Retry:    fastRetry,
			Map:      func(in KV, emit func(KV)) error { emit(in); return nil },
			Reduce: func(key []byte, values [][]byte, emit func(KV)) error {
				// The count under the key, then records whose key (and, for
				// "all", whole content) other key groups emit too.
				if err := sum(key, values, emit); err != nil {
					return err
				}
				emit(KV{Key: key[:5], Value: key[4:]})
				emit(kv("all", "x"))
				return nil
			},
		}
		// What the job computes, without the runtime.
		counts := map[string]int{}
		for _, in := range input {
			counts[string(in.Key)]++
		}
		var want []KV
		for k, n := range counts {
			want = append(want, kv(k, strconv.Itoa(n)), kv(k[:5], k[4:]), kv("all", "x"))
		}
		referenceSort(want)

		var shuffle [2]Metrics
		for fi, faults := range []bool{false, true} {
			cfg.Faults, cfg.Speculation = nil, Speculation{}
			if faults {
				cfg.Faults = NewFaultPlan().
					FailEvery(MapTask, 2).
					FailEvery(ReduceTask, 3).
					Fail(ReduceTask, 0, 1).
					Delay(ReduceTask, 1, 0, 3*time.Millisecond)
				cfg.Speculation = Speculation{Enabled: true, MinCompleted: 1, MinRuntime: 200 * time.Microsecond}
			}
			out, m, err := Run(cfg, input)
			if err != nil {
				t.Fatalf("trial %d faults=%v: %v", trial, faults, err)
			}
			runsEqual(t, want, out)
			if m.OutputRecords != int64(len(want)) {
				t.Fatalf("trial %d: OutputRecords %d for %d records", trial, m.OutputRecords, len(want))
			}
			shuffle[fi] = m
			if faults && m.Attempts <= int64(m.Tasks()) {
				t.Fatalf("trial %d: fault plan provoked no extra attempts", trial)
			}
		}
		if shuffle[0].ShuffleBytes != shuffle[1].ShuffleBytes || shuffle[0].ShuffleRecords != shuffle[1].ShuffleRecords ||
			fmt.Sprint(shuffle[0].ReducerRecords) != fmt.Sprint(shuffle[1].ReducerRecords) {
			t.Fatalf("trial %d: shuffle accounting depends on the failure model: %d/%d %v vs %d/%d %v",
				trial, shuffle[0].ShuffleBytes, shuffle[0].ShuffleRecords, shuffle[0].ReducerRecords,
				shuffle[1].ShuffleBytes, shuffle[1].ShuffleRecords, shuffle[1].ReducerRecords)
		}
		if shuffle[0].ShuffleRecords != int64(len(input)) {
			t.Fatalf("trial %d: %d records shuffled of %d mapped", trial, shuffle[0].ShuffleRecords, len(input))
		}
	}
}
