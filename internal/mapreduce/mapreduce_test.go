package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func kv(k, v string) KV { return KV{Key: []byte(k), Value: []byte(v)} }

func TestWordCount(t *testing.T) {
	docs := []KV{
		kv("d1", "the quick brown fox"),
		kv("d2", "the lazy dog"),
		kv("d3", "the fox"),
	}
	cfg := Config{
		Name: "wordcount",
		Map: func(in KV, emit func(KV)) error {
			for _, w := range strings.Fields(string(in.Value)) {
				emit(kv(w, "1"))
			}
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit func(KV)) error {
			emit(KV{Key: key, Value: []byte(strconv.Itoa(len(values)))})
			return nil
		},
	}
	out, m, err := Run(cfg, docs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range out {
		got[string(kv.Key)] = string(kv.Value)
	}
	want := map[string]string{"the": "3", "quick": "1", "brown": "1", "fox": "2", "lazy": "1", "dog": "1"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %q want %q", k, got[k], v)
		}
	}
	if m.ShuffleRecords != 9 {
		t.Errorf("shuffle records = %d want 9", m.ShuffleRecords)
	}
	wantBytes := int64(0)
	for _, w := range []string{"the", "quick", "brown", "fox", "the", "lazy", "dog", "the", "fox"} {
		wantBytes += int64(len(w) + 1 + recordOverhead)
	}
	if m.ShuffleBytes != wantBytes {
		t.Errorf("shuffle bytes = %d want %d", m.ShuffleBytes, wantBytes)
	}
	if m.OutputRecords != 6 {
		t.Errorf("output records = %d", m.OutputRecords)
	}
}

func TestDeterministicOutput(t *testing.T) {
	input := make([]KV, 100)
	for i := range input {
		input[i] = kv(fmt.Sprintf("k%03d", i%10), fmt.Sprintf("v%d", i))
	}
	cfg := Config{
		Name: "ident",
		Map:  func(in KV, emit func(KV)) error { emit(in); return nil },
		Reduce: func(key []byte, values [][]byte, emit func(KV)) error {
			for _, v := range values {
				emit(KV{Key: key, Value: v})
			}
			return nil
		},
		Mappers:  7,
		Reducers: 3,
		Nodes:    8,
	}
	out1, _, err := Run(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := Run(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != len(out2) {
		t.Fatal("different output sizes")
	}
	for i := range out1 {
		if !bytes.Equal(out1[i].Key, out2[i].Key) || !bytes.Equal(out1[i].Value, out2[i].Value) {
			t.Fatal("nondeterministic output")
		}
	}
	if !sort.SliceIsSorted(out1, func(i, j int) bool { return bytes.Compare(out1[i].Key, out1[j].Key) < 0 }) {
		t.Fatal("output not key-sorted")
	}
}

func TestIdentityReduceNil(t *testing.T) {
	input := []KV{kv("b", "2"), kv("a", "1")}
	out, m, err := Run(Config{Name: "nil-reduce", Map: func(in KV, emit func(KV)) error { emit(in); return nil }}, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || string(out[0].Key) != "a" {
		t.Fatalf("out = %v", out)
	}
	if m.OutputRecords != 2 {
		t.Fatalf("records = %d", m.OutputRecords)
	}
}

func TestCustomPartitioner(t *testing.T) {
	input := []KV{kv("0", "a"), kv("1", "b"), kv("2", "c"), kv("3", "d")}
	cfg := Config{
		Name:     "parts",
		Reducers: 2,
		Map:      func(in KV, emit func(KV)) error { emit(in); return nil },
		Partition: func(key []byte, n int) int {
			v, _ := strconv.Atoi(string(key))
			return v % n
		},
		Reduce: func(key []byte, values [][]byte, emit func(KV)) error {
			emit(KV{Key: key})
			return nil
		},
	}
	if _, m, err := Run(cfg, input); err != nil {
		t.Fatal(err)
	} else if m.ReducerRecords[0] != 2 || m.ReducerRecords[1] != 2 {
		t.Fatalf("reducer records = %v", m.ReducerRecords)
	}
}

func TestBroadcastAccounting(t *testing.T) {
	cfg := Config{
		Name:      "bcast",
		Nodes:     5,
		Map:       func(in KV, emit func(KV)) error { return nil },
		Broadcast: []Broadcast{{Name: "index", Size: 1000}, {Name: "pivots", Size: 24}},
	}
	_, m, err := Run(cfg, []KV{kv("x", "y")})
	if err != nil {
		t.Fatal(err)
	}
	if m.BroadcastBytes != 5*1024 {
		t.Fatalf("broadcast bytes = %d want %d", m.BroadcastBytes, 5*1024)
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := Run(Config{
		Name: "maperr",
		Map:  func(in KV, emit func(KV)) error { return boom },
	}, []KV{kv("a", "b")})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceError(t *testing.T) {
	boom := errors.New("red")
	_, _, err := Run(Config{
		Name:   "rederr",
		Map:    func(in KV, emit func(KV)) error { emit(in); return nil },
		Reduce: func(key []byte, values [][]byte, emit func(KV)) error { return boom },
	}, []KV{kv("a", "b")})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingMap(t *testing.T) {
	if _, _, err := Run(Config{Name: "nomap"}, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSkewMetric(t *testing.T) {
	m := Metrics{ReducerRecords: []int64{10, 10, 10, 10}}
	if m.Skew() != 1 {
		t.Fatalf("balanced skew = %v", m.Skew())
	}
	m = Metrics{ReducerRecords: []int64{40, 0, 0, 0}}
	if m.Skew() != 4 {
		t.Fatalf("skew = %v", m.Skew())
	}
	if (Metrics{}).Skew() != 0 {
		t.Fatal("empty skew should be 0")
	}
}

func TestSplitInput(t *testing.T) {
	in := make([]KV, 10)
	s := splitInput(in, 3)
	if len(s) != 3 || len(s[0]) != 4 || len(s[2]) != 2 {
		t.Fatalf("splits = %d/%d/%d", len(s[0]), len(s[1]), len(s[2]))
	}
	if got := splitInput(nil, 4); len(got) != 1 || got[0] != nil {
		t.Fatal("empty input should give one empty split")
	}
	if got := splitInput(in[:2], 8); len(got) != 2 {
		t.Fatalf("more mappers than records: %d splits", len(got))
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{ShuffleBytes: 10, ShuffleRecords: 1, BroadcastBytes: 5, OutputRecords: 2}
	a.Add(Metrics{ShuffleBytes: 20, ShuffleRecords: 2, BroadcastBytes: 15, OutputRecords: 3})
	if a.ShuffleBytes != 30 || a.ShuffleRecords != 3 || a.BroadcastBytes != 20 || a.OutputRecords != 5 {
		t.Fatalf("add = %+v", a)
	}
}

// TestManyTasksParallel stresses the worker pool with more tasks than nodes.
func TestManyTasksParallel(t *testing.T) {
	input := make([]KV, 5000)
	for i := range input {
		input[i] = kv(fmt.Sprintf("k%d", i%97), "v")
	}
	cfg := Config{
		Name:     "stress",
		Mappers:  64,
		Reducers: 32,
		Nodes:    4,
		Map:      func(in KV, emit func(KV)) error { emit(in); return nil },
		Reduce: func(key []byte, values [][]byte, emit func(KV)) error {
			emit(KV{Key: key, Value: []byte(strconv.Itoa(len(values)))})
			return nil
		},
	}
	out, m, err := Run(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 97 {
		t.Fatalf("out = %d keys", len(out))
	}
	if len(m.MapTaskTimes) != 64 || len(m.ReduceTaskTimes) != 32 {
		t.Fatalf("task counts %d/%d", len(m.MapTaskTimes), len(m.ReduceTaskTimes))
	}
	total := int64(0)
	for _, kv := range out {
		v, _ := strconv.Atoi(string(kv.Value))
		total += int64(v)
	}
	if total != 5000 {
		t.Fatalf("counted %d", total)
	}
}
