package bench

import (
	"fmt"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/histo"
)

// uniformPivots adapts histo.UniformPivots for the join-balance ablation.
func uniformPivots(bits, parts int) []bitvec.Code {
	return histo.UniformPivots(bits, parts)
}

// Ablations runs the design-choice studies DESIGN.md calls out over one
// dataset: Gray ordering vs lexicographic, residual distance accounting vs
// full recomputation, and node consolidation on vs off.
func Ablations(sc Scale) ([]Table, error) {
	env, err := NewEnv(dataset.NUSWide, sc.SelectN, sc.Bits, sc.Queries, sc.Seed)
	if err != nil {
		return nil, err
	}
	h := sc.Threshold

	variants := []struct {
		name string
		opts core.Options
		// recompute switches the search to the full-recompute ablation.
		recompute bool
	}{
		{name: "DHA (gray + residual + consolidate)"},
		{name: "lexicographic order", opts: core.Options{LexOrder: true}},
		{name: "full distance recompute", recompute: true},
		{name: "no node consolidation", opts: core.Options{NoConsolidate: true}},
	}
	t := Table{
		Title: "Ablation: Dynamic HA-Index design choices",
		Note: fmt.Sprintf("%s, n=%d, h=%d; distance computations are per-query means",
			env.Profile.Name, sc.SelectN, h),
		Header: []string{"variant", "query time(ms)", "distance computations", "nodes", "edges"},
	}
	for _, v := range variants {
		idx := core.BuildDynamic(env.Codes, nil, v.opts)
		var dur time.Duration
		var st core.SearchStats
		t0 := time.Now()
		for _, q := range env.Queries {
			if v.recompute {
				idx.SearchRecomputeAll(q, h, &st)
			} else {
				idx.SearchInto(q, h, &st)
			}
		}
		comps := st.DistanceComputations
		dur = time.Since(t0) / time.Duration(len(env.Queries))
		t.Rows = append(t.Rows, []string{
			v.name,
			ms(dur),
			fmt.Sprintf("%d", comps/len(env.Queries)),
			fmt.Sprintf("%d", idx.NodeCount()),
			fmt.Sprintf("%d", idx.EdgeCount()),
		})
	}

	balance, err := JoinBalance(sc)
	if err != nil {
		return nil, err
	}
	return []Table{t, balance}, nil
}
