package planner

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

func clustered(rng *rand.Rand, n, bits, clusters, flips int) []bitvec.Code {
	out := make([]bitvec.Code, 0, n)
	for len(out) < n {
		center := bitvec.Rand(rng, bits)
		for i := 0; i < n/clusters+1 && len(out) < n; i++ {
			c := center.Clone()
			for f := 0; f < flips; f++ {
				c.FlipBit(rng.Intn(bits))
			}
			out = append(out, c)
		}
	}
	return out
}

func equalIDs(a, b []int) bool {
	sort.Ints(a)
	sort.Ints(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func autoPlanner(t testing.TB, codes []bitvec.Code, opts Options) *Planner {
	t.Helper()
	p, err := Auto(codes, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCorrectEveryPath: whatever path the planner picks — and each path when
// forced — results match the oracle.
func TestCorrectEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	codes := clustered(rng, 1000, 32, 8, 3)
	p := autoPlanner(t, codes, Options{Seed: 1})
	for trial := 0; trial < 40; trial++ {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(32))
		h := []int{1, 3, 8, 16, 31}[trial%5]
		var want []int
		for i, c := range codes {
			if q.Distance(c) <= h {
				want = append(want, i)
			}
		}
		got, _, pl := p.Select(q, h)
		if !equalIDs(got, want) {
			t.Fatalf("h=%d strategy=%s mismatch", h, pl.Strategy)
		}
		for s := Strategy(0); s < numStrategies; s++ {
			forced, stats := p.SelectWith(s, q, h)
			if !equalIDs(forced, want) {
				t.Fatalf("h=%d forced %s mismatch", h, s)
			}
			if stats.DistanceComputations == 0 && len(want) > 0 {
				t.Fatalf("h=%d forced %s reported no work", h, s)
			}
		}
	}
}

// TestCalibrationFillsModel: after New every cell of every available engine
// is measured, so the first real query at any threshold has a full model.
func TestCalibrationFillsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	codes := clustered(rng, 600, 32, 8, 3)
	p := autoPlanner(t, codes, Options{Seed: 2})
	for s := Strategy(0); s < numStrategies; s++ {
		if !p.Available(s) {
			t.Fatalf("%s unavailable in Auto planner", s)
		}
		for h := 0; h <= 32; h++ {
			if p.CostNs(s, h) <= 0 {
				t.Fatalf("%s cost unmeasured at h=%d after calibration", s, h)
			}
		}
	}
}

// TestPlanIsATable: every threshold's decision is made once, in New — the
// cheapest calibrated engine, weighed against the runner-up — and Plan
// returns it unchanged on every call, from any goroutine, allocation-free.
func TestPlanIsATable(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	codes := clustered(rng, 2000, 32, 8, 3)
	p := autoPlanner(t, codes, Options{Seed: 4})
	want := make([]Plan, 33)
	for h := range want {
		best, second := Strategy(-1), Strategy(-1)
		for s := Strategy(0); s < numStrategies; s++ {
			switch c := p.CostNs(s, h); {
			case !p.Available(s):
			case best < 0 || c < p.CostNs(best, h):
				best, second = s, best
			case second < 0 || c < p.CostNs(second, h):
				second = s
			}
		}
		pl := p.Plan(h)
		if pl.Strategy != best || pl.Versus != second || pl.H != h {
			t.Fatalf("h=%d: planned %s vs %s, costs %v; want %s vs %s", h, pl.Strategy, pl.Versus, pl.CostNs, best, second)
		}
		// The plan carries the facts; the sentence is rendered from them on demand.
		if s := fmt.Sprintf("%s %.0fns beats %s", best, pl.CostNs[best], second); !strings.Contains(pl.Reason(), s) {
			t.Fatalf("h=%d: reason %q does not say %q", h, pl.Reason(), s)
		}
		want[h] = pl
	}
	check := func() error {
		for i := 0; i < 1000; i++ {
			h := i % len(want)
			if pl := p.Plan(h); pl != want[h] {
				return fmt.Errorf("call %d: Plan(%d) = %+v, first call %+v", i, h, pl, want[h])
			}
		}
		return nil
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() { errs <- check() }()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Plan(4) }); allocs != 0 {
		t.Fatalf("Plan allocates %.0f times a decision; it runs on every request", allocs)
	}
}

// TestRegimeSwitch: on clustered data the measured model keeps tight
// thresholds off the scan — the crossover the multi-engine design exists
// to exploit.
func TestRegimeSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	// Large enough that the flat scan (~1 ns/code) costs several times an
	// index probe at h=2; over a few thousand codes it honestly competes.
	codes := clustered(rng, 40000, 32, 160, 3)
	p := autoPlanner(t, codes, Options{Seed: 5, CalibProbes: 4})
	if pl := p.Plan(2); pl.Strategy == UseScan {
		t.Errorf("tight threshold routed to the scan: %+v", pl)
	}
}

// TestUncalibratedProbesFirst: with calibration disabled there is no cost
// to compare, so every threshold plans HA and says why.
func TestUncalibratedProbesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	codes := clustered(rng, 200, 32, 4, 2)
	p := autoPlanner(t, codes, Options{Seed: 6, CalibProbes: -1})
	for h := 0; h <= 32; h++ {
		pl := p.Plan(h)
		if pl.Strategy != UseHA || pl.Versus >= 0 || pl.CostNs != [numStrategies]float64{} {
			t.Fatalf("h=%d: uncalibrated planner chose %s vs %s at costs %v", h, pl.Strategy, pl.Versus, pl.CostNs)
		}
		if !strings.Contains(pl.Reason(), "uncalibrated") {
			t.Fatalf("h=%d: reason should say the planner is uncalibrated: %q", h, pl.Reason())
		}
	}
}

// TestHAOnlyPlanner: with no MIH and no codes, every plan stays on HA.
func TestHAOnlyPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	codes := clustered(rng, 200, 32, 4, 2)
	idx := core.Freeze(core.BuildDynamic(codes, nil, core.Options{}))
	p, err := New(Engines{HA: idx}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Available(UseMIH) || p.Available(UseScan) {
		t.Fatal("engines available without backing state")
	}
	for _, h := range []int{0, 4, 31} {
		if pl := p.Plan(h); pl.Strategy != UseHA {
			t.Fatalf("h=%d routed to %s without the engine", h, pl.Strategy)
		}
	}
}

// TestCodesPackedIntoGroups: plain code/id slices are accepted by being
// packed into a group view once — after New there is one scan, over a slab,
// whichever way the codes arrived — and both ways answer like the oracle.
func TestCodesPackedIntoGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	codes := clustered(rng, 400, 96, 5, 3)
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = 2*i + 7
	}
	idx := core.Freeze(core.BuildDynamic(codes, ids, core.Options{}))
	bySlices, err := New(Engines{HA: idx, Codes: codes, IDs: ids}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byArena, err := New(Engines{HA: idx, Groups: idx.Groups()}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eng := bySlices.Engines(); eng.Codes != nil || eng.IDs != nil || eng.Groups.Count() != len(codes) {
		t.Fatalf("slices not packed into the view: %d groups, %d codes kept", eng.Groups.Count(), len(eng.Codes))
	}
	for _, h := range []int{0, 3, 20, 96} {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(96))
		var want []int
		for i, c := range codes {
			if q.Distance(c) <= h {
				want = append(want, ids[i])
			}
		}
		for _, p := range []*Planner{bySlices, byArena} {
			if got, _ := p.SelectWith(UseScan, q, h); !equalIDs(got, want) {
				t.Fatalf("h=%d: scan returned %d ids, want %d", h, len(got), len(want))
			}
		}
	}
	mixed := append([]bitvec.Code{bitvec.Rand(rng, 32)}, codes...)
	if _, err := New(Engines{HA: idx, Codes: mixed}, Options{}); err == nil {
		t.Error("codes of another length accepted")
	}
}

func TestSelectivityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	codes := clustered(rng, 500, 24, 4, 2)
	p := autoPlanner(t, codes, Options{Seed: 7})
	prev := 0.0
	for h := 0; h <= 24; h++ {
		s := p.Selectivity(h)
		if s < prev-1e-12 {
			t.Fatalf("selectivity not monotone at h=%d", h)
		}
		prev = s
	}
	if p.Selectivity(24) < 0.999 {
		t.Fatalf("selectivity at h=L should be ~1, got %v", p.Selectivity(24))
	}
	// Self-distance mass makes tiny-h selectivity nonzero on clustered data.
	if p.Selectivity(4) <= 0 {
		t.Fatal("clustered data should have nonzero tight selectivity")
	}
}

func TestExplain(t *testing.T) {
	rng := rand.New(rand.NewSource(209))
	codes := clustered(rng, 300, 32, 4, 2)
	p := autoPlanner(t, codes, Options{Seed: 8})
	out := p.Explain(3)
	for _, want := range []string{"h=3", "ha", "mih", "scan", "calibrated at load", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{"ha": UseHA, "ha-index": UseHA, "mih": UseMIH, "scan": UseScan} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("warp"); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestPlanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	codes := clustered(rng, 100, 16, 2, 1)
	p := autoPlanner(t, codes, Options{Seed: 9})
	if pl := p.Plan(-5); !p.Available(pl.Strategy) {
		t.Error("negative h should clamp and plan")
	}
	if pl := p.Plan(99); pl.EstimatedResults < float64(len(codes))-1 {
		t.Error("h > L should estimate full selectivity")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Engines{}, Options{}); err == nil {
		t.Error("missing HA engine accepted")
	}
	if _, err := Auto(nil, nil, Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
	rng := rand.New(rand.NewSource(211))
	codes := clustered(rng, 50, 32, 2, 1)
	idx := core.Freeze(core.BuildDynamic(codes, nil, core.Options{}))
	if _, err := New(Engines{HA: idx, Codes: codes, IDs: []int{1}}, Options{}); err == nil {
		t.Error("mismatched id count accepted")
	}
}
