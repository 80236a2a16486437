// Package haindex_test benchmarks every table and figure of the paper's
// evaluation with testing.B micro-benchmarks. Each BenchmarkTableN* /
// BenchmarkFigN* family corresponds to one published artifact; run them all
// with
//
//	go test -bench=. -benchmem
//
// The habench command (cmd/habench) regenerates the full formatted tables;
// these benchmarks expose the same measurements to Go tooling.
package haindex_test

import (
	"fmt"
	"testing"

	"haindex"
)

const (
	benchN    = 5000
	benchBits = 32
	benchH    = 3
)

// benchEnv lazily prepares one hashed dataset per profile.
type benchEnv struct {
	codes   []haindex.Code
	vecs    []haindex.Vec
	hash    *haindex.SpectralHash
	queries []haindex.Code
}

var envCache = map[string]*benchEnv{}

func env(b *testing.B, profile haindex.DatasetProfile, n int) *benchEnv {
	b.Helper()
	key := fmt.Sprintf("%s/%d", profile.Name, n)
	if e, ok := envCache[key]; ok {
		return e
	}
	vecs := haindex.Generate(profile, n, 1)
	hf, err := haindex.LearnSpectralHash(haindex.Sample(vecs, n/10+100, 2), benchBits)
	if err != nil {
		b.Fatal(err)
	}
	codes := haindex.HashAll(hf, vecs)
	e := &benchEnv{codes: codes, vecs: vecs, hash: hf}
	for i := 0; i < 64; i++ {
		e.queries = append(e.queries, codes[(i*7919)%n])
	}
	envCache[key] = e
	return e
}

func (e *benchEnv) query(i int) haindex.Code { return e.queries[i%len(e.queries)] }

// ---- Table 4: Hamming-select query time per system ----

func benchSearch(b *testing.B, search func(haindex.Code, int) []int, e *benchEnv) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(e.query(i), benchH)
	}
}

func BenchmarkTable4QueryNestedLoop(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx := haindex.NewNestedLoop(e.codes, nil)
	benchSearch(b, idx.Search, e)
}

func BenchmarkTable4QueryMH4(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx, err := haindex.NewMH4(e.codes, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchSearch(b, idx.Search, e)
}

func BenchmarkTable4QueryMH10(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx, err := haindex.NewMH10(e.codes, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchSearch(b, idx.Search, e)
}

func BenchmarkTable4QueryHEngine(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx, err := haindex.NewHEngine(e.codes, nil, benchH)
	if err != nil {
		b.Fatal(err)
	}
	benchSearch(b, idx.Search, e)
}

func BenchmarkTable4QueryHmSearch(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx, err := haindex.NewHmSearch(e.codes, nil, benchH)
	if err != nil {
		b.Fatal(err)
	}
	benchSearch(b, idx.Search, e)
}

func BenchmarkTable4QueryRadixTree(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx := haindex.BuildRadixTree(e.codes, nil)
	benchSearch(b, idx.Search, e)
}

func BenchmarkTable4QuerySHAIndex(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx := haindex.BuildStaticIndex(e.codes, nil, 8)
	benchSearch(b, idx.Search, e)
}

func BenchmarkTable4QueryDHAIndex(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx := haindex.BuildDynamicIndex(e.codes, nil, haindex.IndexOptions{})
	benchSearch(b, idx.Search, e)
}

// ---- Table 4: update time (delete + reinsert) ----

func BenchmarkTable4UpdateDHAIndex(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx := haindex.BuildDynamicIndex(e.codes, nil, haindex.IndexOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % benchN
		idx.Delete(id, e.codes[id])
		idx.Insert(id, e.codes[id])
	}
}

func BenchmarkTable4UpdateSHAIndex(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx := haindex.BuildStaticIndex(e.codes, nil, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % benchN
		idx.Delete(id, e.codes[id])
		idx.Insert(id, e.codes[id])
	}
}

func BenchmarkTable4UpdateMH4(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx, err := haindex.NewMH4(e.codes, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % benchN
		idx.Delete(id, e.codes[id])
		idx.Insert(id, e.codes[id])
	}
}

// ---- Figure 6: threshold sensitivity ----

func BenchmarkFig6(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	dha := haindex.BuildDynamicIndex(e.codes, nil, haindex.IndexOptions{})
	mh4, err := haindex.NewMH4(e.codes, nil)
	if err != nil {
		b.Fatal(err)
	}
	systems := []struct {
		name   string
		search func(haindex.Code, int) []int
	}{
		{"DHA", dha.Search},
		{"MH4", mh4.Search},
	}
	for _, sys := range systems {
		for h := 1; h <= 6; h++ {
			b.Run(fmt.Sprintf("%s/h=%d", sys.name, h), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys.search(e.query(i), h)
				}
			})
		}
	}
}

// ---- Figure 8: window/depth parameter study ----

func BenchmarkFig8Build(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	for _, wf := range []float64{0.005, 0.02, 0.04} {
		for _, depth := range []int{4, 7} {
			w := int(wf * benchN)
			b.Run(fmt.Sprintf("w=%.3f/depth=%d", wf, depth), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					haindex.BuildDynamicIndex(e.codes, nil, haindex.IndexOptions{Window: w, Depth: depth})
				}
			})
		}
	}
}

func BenchmarkFig8Query(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	for _, wf := range []float64{0.005, 0.02, 0.04} {
		w := int(wf * benchN)
		idx := haindex.BuildDynamicIndex(e.codes, nil, haindex.IndexOptions{Window: w, Depth: 7})
		b.Run(fmt.Sprintf("w=%.3f", wf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Search(e.query(i), benchH)
			}
		})
	}
}

// ---- Table 5: kNN-select systems ----

func BenchmarkTable5KNNLSH(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	lsh := haindex.NewE2LSH(e.vecs, haindex.E2LSHConfig{Tables: 20, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsh.Select(e.vecs[(i*7919)%benchN], 50)
	}
}

func BenchmarkTable5KNNLSBTree(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	lsb := haindex.NewLSBTree(e.vecs, haindex.LSBConfig{Trees: 25, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsb.Select(e.vecs[(i*7919)%benchN], 50)
	}
}

func BenchmarkTable5KNNDHAIndex(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx := haindex.BuildDynamicIndex(e.codes, nil, haindex.IndexOptions{})
	s := haindex.NewHammingKNN(idx, e.hash, e.vecs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Select(e.vecs[(i*7919)%benchN], 50)
	}
}

func BenchmarkTable5BuildLSBTree(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		haindex.NewLSBTree(e.vecs, haindex.LSBConfig{Trees: 25, Seed: 1})
	}
}

func BenchmarkTable5BuildDHAIndex(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		haindex.BuildDynamicIndex(e.codes, nil, haindex.IndexOptions{})
	}
}

// ---- Figures 7 and 9: distributed joins (pipeline per op) ----

func joinBenchData(b *testing.B) ([]haindex.Vec, []haindex.Vec, *haindex.Preprocessed, haindex.JoinOptions) {
	b.Helper()
	base := haindex.Generate(haindex.NUSWide, 400, 5)
	opt := haindex.JoinOptions{Bits: benchBits, Nodes: 4, Partitions: 4, SampleRate: 0.1, Threshold: benchH, Seed: 1}
	pre, err := haindex.PrepareJoin(base, base, opt)
	if err != nil {
		b.Fatal(err)
	}
	return base, base, pre, opt
}

func BenchmarkFig7MRHAIndexA(b *testing.B) {
	r, s, pre, opt := joinBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := haindex.BuildGlobalIndex(r, pre, opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := haindex.HammingJoin(s, g, pre, false, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.ShuffleBytes+res.Metrics.BroadcastBytes+
			g.Metrics.ShuffleBytes+g.Metrics.BroadcastBytes), "shuffle+bcast-bytes/op")
	}
}

func BenchmarkFig7MRHAIndexB(b *testing.B) {
	r, s, pre, opt := joinBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := haindex.BuildGlobalIndex(r, pre, opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := haindex.HammingJoin(s, g, pre, true, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.ShuffleBytes+res.Metrics.BroadcastBytes+
			g.Metrics.ShuffleBytes+g.Metrics.BroadcastBytes), "shuffle+bcast-bytes/op")
	}
}

func BenchmarkFig7PMH10(b *testing.B) {
	r, s, pre, opt := joinBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := haindex.PMHJoin(r, s, pre, 10, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.ShuffleBytes+res.Metrics.BroadcastBytes), "shuffle+bcast-bytes/op")
	}
}

func BenchmarkFig7PGBJ(b *testing.B) {
	r, s, _, opt := joinBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := haindex.PGBJ(r, s, 10, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.ShuffleBytes+res.Metrics.BroadcastBytes), "shuffle+bcast-bytes/op")
	}
}

// Figure 9 measures the same pipelines' wall time; ns/op of the Fig7
// benchmarks is that measurement, so Fig9 runs the scale sweep instead.
func BenchmarkFig9ScaleSweep(b *testing.B) {
	base := haindex.Generate(haindex.NUSWide, 150, 5)
	opt := haindex.JoinOptions{Bits: benchBits, Nodes: 4, Partitions: 4, SampleRate: 0.1, Threshold: benchH, Seed: 1}
	for _, scale := range []int{2, 4} {
		data := haindex.ScaleUp(base, scale)
		pre, err := haindex.PrepareJoin(data, data, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("MRHA-B/x%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := haindex.BuildGlobalIndex(data, pre, opt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := haindex.HammingJoin(data, g, pre, true, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("PGBJ/x%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := haindex.PGBJ(data, data, 10, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 10: sampling sweep ----

func BenchmarkFig10Sampling(b *testing.B) {
	base := haindex.Generate(haindex.NUSWide, 600, 5)
	for _, rate := range []float64{0.05, 0.30} {
		opt := haindex.JoinOptions{Bits: benchBits, Nodes: 4, Partitions: 4, SampleRate: rate, Threshold: benchH, Seed: 1}
		b.Run(fmt.Sprintf("rate=%.2f", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pre, err := haindex.PrepareJoin(base, base, opt)
				if err != nil {
					b.Fatal(err)
				}
				g, err := haindex.BuildGlobalIndex(base, pre, opt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := haindex.HammingJoin(base, g, pre, false, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations (DESIGN.md ("Ablation targets")) ----

func BenchmarkAblationGrayOrder(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	for _, variant := range []struct {
		name string
		opts haindex.IndexOptions
	}{
		{"gray", haindex.IndexOptions{}},
		{"lex", haindex.IndexOptions{LexOrder: true}},
	} {
		idx := haindex.BuildDynamicIndex(e.codes, nil, variant.opts)
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Search(e.query(i), benchH)
			}
		})
	}
}

func BenchmarkAblationResidual(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	idx := haindex.BuildDynamicIndex(e.codes, nil, haindex.IndexOptions{})
	b.Run("residual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.Search(e.query(i), benchH)
		}
	})
	b.Run("recompute-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.SearchRecomputeAll(e.query(i), benchH, new(haindex.SearchStats))
		}
	})
}

func BenchmarkAblationConsolidate(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	for _, variant := range []struct {
		name string
		opts haindex.IndexOptions
	}{
		{"consolidate", haindex.IndexOptions{}},
		{"no-consolidate", haindex.IndexOptions{NoConsolidate: true}},
	} {
		idx := haindex.BuildDynamicIndex(e.codes, nil, variant.opts)
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Search(e.query(i), benchH)
			}
		})
	}
}

func BenchmarkAblationPivots(b *testing.B) {
	e := env(b, haindex.NUSWide, benchN)
	sample := e.codes[:500]
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			haindex.Pivots(sample, 16)
		}
	})
	// Uniform pivots are nearly free to compute; the interesting contrast
	// (reducer skew) is reported by habench -exp ablation.
	pivots := haindex.Pivots(sample, 16)
	b.Run("partition-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			haindex.PartitionOf(pivots, e.codes[i%len(e.codes)])
		}
	})
}
