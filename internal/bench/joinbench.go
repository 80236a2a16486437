package bench

import (
	"fmt"
	"time"

	"haindex/internal/dataset"
	"haindex/internal/knn"
	"haindex/internal/mapreduce"
	"haindex/internal/mrjoin"
	"haindex/internal/vector"
)

// reproEngine pins every join and select reducer of the reproduction to the
// paper's method, the HA-Index walk, where a job would otherwise run the
// forest's counted plan.
const reproEngine = "ha"

// joinCosts is the measured cost of one distributed join plan at one scale.
type joinCosts struct {
	shuffle int64 // shuffle + broadcast bytes, the Figure 7 metric
	wall    time.Duration
}

// runJoinSuite executes the four systems of Figures 7 and 9 over one
// dataset at one scale factor and returns per-system costs.
func runJoinSuite(base []vector.Vec, scale int, sc Scale) (map[string]joinCosts, error) {
	data := dataset.ScaleUp(base, scale)
	// Self-join setting, as in the paper's Section 6.2 (Self-Hamming-join /
	// Self-kNN-join).
	r, s := data, data
	opt := mrjoin.Options{
		Bits:       sc.Bits,
		Partitions: sc.Partitions,
		Nodes:      sc.Nodes,
		SampleRate: 0.1,
		Threshold:  sc.Threshold,
		Seed:       sc.Seed,
		Engine:     reproEngine,
	}
	out := make(map[string]joinCosts)

	t0 := time.Now()
	pre, err := mrjoin.Preprocess(r, s, opt)
	if err != nil {
		return nil, err
	}
	preTime := time.Since(t0)

	t0 = time.Now()
	g, err := mrjoin.BuildGlobalIndex(r, pre, opt)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(t0)
	buildCost := g.Metrics.ShuffleBytes + g.Metrics.BroadcastBytes

	t0 = time.Now()
	a, err := mrjoin.HammingJoinA(s, g, pre, opt)
	if err != nil {
		return nil, err
	}
	out["MRHA-INDEX-A"] = joinCosts{
		shuffle: buildCost + a.Metrics.ShuffleBytes + a.Metrics.BroadcastBytes,
		wall:    preTime + buildTime + time.Since(t0),
	}

	t0 = time.Now()
	b, err := mrjoin.HammingJoinB(s, g, pre, opt)
	if err != nil {
		return nil, err
	}
	out["MRHA-INDEX-B"] = joinCosts{
		shuffle: buildCost + b.Metrics.ShuffleBytes + b.Metrics.BroadcastBytes,
		wall:    preTime + buildTime + time.Since(t0),
	}

	t0 = time.Now()
	p, err := mrjoin.PMHJoin(r, s, pre, 10, opt)
	if err != nil {
		return nil, err
	}
	out["PMH-10"] = joinCosts{
		shuffle: p.Metrics.ShuffleBytes + p.Metrics.BroadcastBytes,
		wall:    preTime + time.Since(t0),
	}

	t0 = time.Now()
	pg, err := mrjoin.PGBJ(r, s, sc.K, opt)
	if err != nil {
		return nil, err
	}
	out["PGBJ"] = joinCosts{
		shuffle: pg.Metrics.ShuffleBytes + pg.Metrics.BroadcastBytes,
		wall:    time.Since(t0),
	}
	return out, nil
}

var joinSystems = []string{"PGBJ", "PMH-10", "MRHA-INDEX-A", "MRHA-INDEX-B"}

// joinSweep runs the suite across the scale sweep for each dataset and
// renders one table per dataset with the chosen metric.
func joinSweep(sc Scale, title, note string, metric func(joinCosts) string) ([]Table, error) {
	var out []Table
	for _, p := range dataset.Profiles() {
		base := dataset.Generate(p, sc.JoinBase, sc.Seed)
		t := Table{
			Title:  fmt.Sprintf("%s (%s)", title, p.Name),
			Note:   fmt.Sprintf("%s; base n=%d per side, self-join, h=%d, %d nodes", note, sc.JoinBase, sc.Threshold, sc.Nodes),
			Header: append([]string{"system"}, sprintInts("x", sc.JoinScales)...),
		}
		rows := make(map[string][]string, len(joinSystems))
		for _, sys := range joinSystems {
			rows[sys] = []string{sys}
		}
		for _, scale := range sc.JoinScales {
			costs, err := runJoinSuite(base, scale, sc)
			if err != nil {
				return nil, err
			}
			for _, sys := range joinSystems {
				rows[sys] = append(rows[sys], metric(costs[sys]))
			}
		}
		for _, sys := range joinSystems {
			t.Rows = append(t.Rows, rows[sys])
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig7 reproduces the shuffle-cost study: bytes crossing the network
// (shuffle + broadcast) per system as the data scales ×5..×25.
func Fig7(sc Scale) ([]Table, error) {
	return joinSweep(sc, "Figure 7: shuffling cost of Hamming-join and kNN-join",
		"cells in GB (log-scale plot in the paper)",
		func(c joinCosts) string { return gb(c.shuffle) })
}

// Fig9 reproduces the scalability study: end-to-end running time per system
// across the same sweep.
func Fig9(sc Scale) ([]Table, error) {
	return joinSweep(sc, "Figure 9: speedup and scalability (running time)",
		"cells in seconds",
		func(c joinCosts) string { return secs(c.wall) })
}

// Fig10 reproduces the sampling study: per-phase costs of the MRHA pipeline
// and the approximate join's precision/recall as the sampling rate varies.
func Fig10(sc Scale) ([]Table, error) {
	p := dataset.NUSWide
	base := dataset.Generate(p, sc.JoinBase*4, sc.Seed)
	r, s := base, base
	phases := Table{
		Title:  fmt.Sprintf("Figure 10a: effect of sampling on query cost (%s)", p.Name),
		Note:   fmt.Sprintf("n=%d per side, h=%d; cells in seconds", len(base), sc.Threshold),
		Header: []string{"sampling", "learn-hash(s)", "pivot(s)", "build-index(s)", "join(s)", "reducer-skew"},
	}
	quality := Table{
		Title:  fmt.Sprintf("Figure 10b: precision and recall vs sampling (%s)", p.Name),
		Note:   fmt.Sprintf("approximate kNN-join (k=%d) via Hamming-join at h=%d vs exact kNN-join", sc.K, sc.Threshold),
		Header: []string{"sampling", "precision", "recall"},
	}
	for _, rate := range sc.SampleRates {
		opt := mrjoin.Options{
			Bits:       sc.Bits,
			Partitions: sc.Partitions,
			Nodes:      sc.Nodes,
			SampleRate: rate,
			Threshold:  sc.Threshold,
			Seed:       sc.Seed,
			Engine:     reproEngine,
		}
		pre, err := mrjoin.Preprocess(r, s, opt)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		g, err := mrjoin.BuildGlobalIndex(r, pre, opt)
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(t0)
		t0 = time.Now()
		join, err := mrjoin.HammingJoinA(s, g, pre, opt)
		if err != nil {
			return nil, err
		}
		joinTime := time.Since(t0)
		phases.Rows = append(phases.Rows, []string{
			fmt.Sprintf("%.2f", rate),
			secs(pre.LearnTime),
			secs(pre.SampleTime + pre.HashTime + pre.PivotTime),
			secs(buildTime),
			secs(joinTime),
			fmt.Sprintf("%.2f", g.Metrics.Skew()),
		})
		prec, rec := joinQuality(r, s, join, sc.K)
		quality.Rows = append(quality.Rows, []string{
			fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.3f", prec),
			fmt.Sprintf("%.3f", rec),
		})
	}
	return []Table{phases, quality}, nil
}

// joinQuality measures the approximate kNN-join the Hamming-join induces:
// for a sample of S tuples, the join partners (ranked by true distance,
// truncated to k) are compared with the exact k nearest neighbors.
func joinQuality(r, s []vector.Vec, join *mrjoin.JoinResult, k int) (precision, recall float64) {
	partners := make(map[int][]int)
	for _, p := range join.Pairs {
		partners[p.SID] = append(partners[p.SID], p.RID)
	}
	nq := 50
	if nq > len(s) {
		nq = len(s)
	}
	var psum, rsum float64
	for i := 0; i < nq; i++ {
		sid := (i * 131) % len(s)
		approx := knn.ExactSubset(r, partners[sid], s[sid], k)
		exact := knn.Exact(r, s[sid], k)
		inExact := make(map[int]bool, len(exact))
		for _, n := range exact {
			inExact[n.ID] = true
		}
		hits := 0
		for _, n := range approx {
			if inExact[n.ID] {
				hits++
			}
		}
		if len(approx) > 0 {
			psum += float64(hits) / float64(len(approx))
		}
		rsum += float64(hits) / float64(len(exact))
	}
	return psum / float64(nq), rsum / float64(nq)
}

// JoinBalance is the pivot-strategy ablation: reducer skew under histogram
// pivots vs uniform range splitting on each (skewed) dataset.
func JoinBalance(sc Scale) (Table, error) {
	t := Table{
		Title:  "Ablation: histogram pivots vs uniform range partitioning",
		Note:   "reducer input skew (max/mean); 1.0 is perfectly balanced",
		Header: []string{"dataset", "histogram-pivots", "uniform-pivots"},
	}
	for _, p := range dataset.Profiles() {
		base := dataset.Generate(p, sc.JoinBase*4, sc.Seed)
		opt := mrjoin.Options{Bits: sc.Bits, Partitions: sc.Partitions, Nodes: sc.Nodes, SampleRate: 0.1, Threshold: sc.Threshold, Seed: sc.Seed}
		pre, err := mrjoin.Preprocess(base, base, opt)
		if err != nil {
			return Table{}, err
		}
		g, err := mrjoin.BuildGlobalIndex(base, pre, opt)
		if err != nil {
			return Table{}, err
		}
		histSkew := g.Metrics.Skew()

		uniform := *pre
		uniform.Pivots = uniformPivots(sc.Bits, opt.Partitions)
		gu, err := mrjoin.BuildGlobalIndex(base, &uniform, opt)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{p.Name, fmt.Sprintf("%.2f", histSkew), fmt.Sprintf("%.2f", gu.Metrics.Skew())})
		_ = mapreduce.Metrics{}
	}
	return t, nil
}
