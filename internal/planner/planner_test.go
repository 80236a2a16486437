package planner

import (
	"fmt"
	"math"
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

// TestObserveRefinesCell: the EWMA pulls a cell toward new observations.
func TestObserveRefinesCell(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	codes := clustered(rng, 300, 32, 4, 2)
	p := autoPlanner(t, codes, Options{Seed: 3})
	before := p.CostNs(UseHA, 5)
	target := before * 100
	for i := 0; i < 50; i++ {
		p.Observe(UseHA, 5, target)
	}
	after := p.CostNs(UseHA, 5)
	if math.Abs(after-target) > target/10 {
		t.Fatalf("EWMA did not converge: before=%.0f after=%.0f target=%.0f", before, after, target)
	}
	// Unrelated cells stay put.
	if p.CostNs(UseHA, 20) <= 0 {
		t.Fatal("neighboring cell lost its measurement")
	}
}

// TestPlanFollowsCosts: with the model pinned by hand, Plan picks the
// cheapest engine and explores the runner-up on schedule.
func TestPlanFollowsCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	codes := clustered(rng, 300, 32, 4, 2)
	p := autoPlanner(t, codes, Options{Seed: 4, ExploreEvery: 8, Alpha: 0.9})
	// Hammer the cells until mih is clearly cheapest at h=6, with the
	// runner-up (ha) close enough to stay worth exploring.
	for i := 0; i < 40; i++ {
		p.Observe(UseHA, 6, 500)
		p.Observe(UseMIH, 6, 100)
		p.Observe(UseScan, 6, 9000)
	}
	counts := map[Strategy]int{}
	explores := 0
	for i := 0; i < 64; i++ {
		pl := p.Plan(6)
		counts[pl.Strategy]++
		if pl.Explore {
			explores++
			if pl.Strategy == UseMIH {
				t.Fatal("exploration picked the best engine, not the runner-up")
			}
		}
	}
	if counts[UseMIH] < 48 {
		t.Fatalf("cheapest engine chosen only %d/64 times", counts[UseMIH])
	}
	if explores == 0 {
		t.Fatal("planner never explored the runner-up")
	}
}

// TestExploreCostCap: a runner-up modeled far beyond the winner is never
// probed — exploration must not charge a pathological engine's full cost
// to a live query.
func TestExploreCostCap(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	codes := clustered(rng, 300, 32, 4, 2)
	p := autoPlanner(t, codes, Options{Seed: 7, ExploreEvery: 4, Alpha: 0.9})
	for i := 0; i < 40; i++ {
		p.Observe(UseHA, 8, 100)
		p.Observe(UseMIH, 8, 100*exploreCostCap*10) // hopeless runner-up
		p.Observe(UseScan, 8, 100*exploreCostCap*20)
	}
	for i := 0; i < 64; i++ {
		if pl := p.Plan(8); pl.Strategy != UseHA {
			t.Fatalf("decision %d routed to %s (explore=%v) despite a %.0fx cost gap",
				i, pl.Strategy, pl.Explore, exploreCostCap*10)
		}
	}
}

// TestRegimeSwitch: on clustered data the measured model keeps tight
// thresholds off the scan, and at the full code width the walk has
// collapsed, so the planner should have moved off it — the crossover the
// multi-engine design exists to exploit.
func TestRegimeSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	// Large enough that the flat scan (~1 ns/code) costs several times an
	// index probe at h=2; over a few thousand codes it honestly competes.
	codes := clustered(rng, 40000, 32, 160, 3)
	p := autoPlanner(t, codes, Options{Seed: 5, CalibProbes: 4})
	// Refine with real executions at both extremes.
	for i := 0; i < 12; i++ {
		q := codes[rng.Intn(len(codes))]
		for _, h := range []int{2, 30} {
			pl := p.Plan(h)
			p.SelectWith(pl.Strategy, q, h)
		}
	}
	if pl := p.Plan(2); pl.Strategy == UseScan && !pl.Explore {
		t.Errorf("tight threshold routed to the scan: %+v", pl)
	}
}

// TestUncalibratedProbesFirst: with calibration disabled, unmeasured cells
// are probed before any cost comparison.
func TestUncalibratedProbesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	codes := clustered(rng, 200, 32, 4, 2)
	p := autoPlanner(t, codes, Options{Seed: 6, CalibProbes: -1})
	pl := p.Plan(4)
	if pl.CostNs[pl.Strategy] != 0 {
		t.Fatalf("uncalibrated planner claims a measured cost: %+v", pl)
	}
	if !strings.Contains(pl.Reason(), "unmeasured") {
		t.Fatalf("reason should mention the unmeasured probe: %q", pl.Reason())
	}
	// Pricing every engine once ends the probing phase.
	q := codes[0]
	for s := Strategy(0); s < numStrategies; s++ {
		p.SelectWith(s, q, 4)
	}
	pl = p.Plan(4)
	if pl.CostNs[pl.Strategy] == 0 {
		t.Fatal("cells still unmeasured after forced probes")
	}
	// The plan carries the facts; the sentence is rendered from them on demand.
	if pl.H != 4 || pl.Versus < 0 || pl.Versus == pl.Strategy || pl.CostNs[pl.Versus] < pl.CostNs[pl.Strategy] {
		t.Fatalf("plan does not name the runner-up it beat: %+v", pl)
	}
	if want := fmt.Sprintf("%s %.0fns beats %s", pl.Strategy, pl.CostNs[pl.Strategy], pl.Versus); !strings.Contains(pl.Reason(), want) {
		t.Fatalf("reason %q does not say %q", pl.Reason(), want)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Plan(4) }); allocs != 0 {
		t.Fatalf("Plan allocates %.0f times a decision; it runs on every request", allocs)
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
	for _, want := range []string{"h=3", "ha", "mih", "scan", "measured EWMA", "->"} {
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
