package planner

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mih"
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
// is counted up to the engine's retirement and none after it, and the scan,
// which never retires, has a cell at every threshold — so the first real
// query at any threshold has a model to pick from.
func TestCalibrationFillsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	codes := clustered(rng, 600, 32, 8, 3)
	p := autoPlanner(t, codes, Options{Seed: 2})
	if p.retired[UseScan] >= 0 {
		t.Fatalf("the scan retired at h=%d", p.retired[UseScan])
	}
	for s := Strategy(0); s < numStrategies; s++ {
		if !p.Available(s) {
			t.Fatalf("%s unavailable in Auto planner", s)
		}
		at := p.retired[s]
		for h := 0; h <= 32; h++ {
			counted := at < 0 || h <= at
			if priced := p.Cost(s, h) > 0; priced != counted {
				t.Fatalf("%s (retired at h=%d): cell priced = %v at h=%d", s, at, priced, h)
			}
			if pl := p.Plan(h); (pl.Retired[s] >= 0) == counted || pl.Strategy == s && !counted {
				t.Fatalf("%s (retired at h=%d): plan at h=%d says retired at %d, picks %s", s, at, h, pl.Retired[s], pl.Strategy)
			}
		}
	}
}

// TestClosedFormRetiresMIH: over uniform 128-bit codes MIH verifies almost
// nothing, so its counted cells stay under the scan until its closed-form
// probe count alone is over it; MIH retires there, and that cell is the
// count, priced.
func TestClosedFormRetiresMIH(t *testing.T) {
	rng := rand.New(rand.NewSource(215))
	codes := make([]bitvec.Code, 4000)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, 128)
	}
	p := autoPlanner(t, codes, Options{Seed: 4})
	m, at := p.Engines().MIH.(*mih.Index), p.retired[UseMIH]
	scan := float64(p.Engines().Groups.Count())
	if c := mihOpCost * float64(m.Probes(at)); at < 0 || c <= scan || p.Cost(UseMIH, at) != c {
		t.Fatalf("MIH retired at h=%d with cell %v, closed form %d probes over %v groups", at, p.Cost(UseMIH, at), m.Probes(at), scan)
	}
}

// fillGrid runs the fill of a 32-bit planner with every engine available
// over synthetic count cells and a scan of 1000 groups, and returns the
// planner, decided, with the cells the fill asked for in the order it asked.
func fillGrid(cost func(s Strategy, h int) float64) (*Planner, []string) {
	p := &Planner{bits: 32, plans: make([]Plan, 33), retired: [numStrategies]int{-1, -1, -1}}
	any := core.GroupView{Length: 32}
	p.idx = [numStrategies]core.Engine{any, any, any}
	var asked []string
	p.fill(p.grid(), scan, func(s Strategy, h int) float64 {
		asked = append(asked, fmt.Sprintf("%s@%d", s, h))
		return cost(s, h)
	})
	p.decide()
	return p, asked
}

// askedAt lists the grid thresholds at which engine s was counted.
func askedAt(asked []string, s Strategy) string {
	var at []string
	for _, a := range asked {
		if name, h, _ := strings.Cut(a, "@"); name == s.String() {
			at = append(at, h)
		}
	}
	return strings.Join(at, ",")
}

// scan is the synthetic scan cost fillGrid prices every threshold at.
const scan = 1000.0

// TestRetirementIsDeterministic holds the fill to its rule over synthetic
// count cells: an HA or MIH cell over the scan's retires the engine — it is
// never counted again and no plan past that threshold picks it — the scan
// never retires, and the grid stops once the scan is alone.
func TestRetirementIsDeterministic(t *testing.T) {
	// The grid is 0,1,2,3,4,6,8,12,16,24,32.
	t.Run("HA retires at the 4th point", func(t *testing.T) {
		p, asked := fillGrid(func(s Strategy, h int) float64 {
			switch {
			case s == UseHA && h >= 3:
				return 2.5 * scan
			case s == UseHA:
				return 0.5 * scan
			case s == UseMIH:
				return 0.8 * scan
			}
			return scan
		})
		if got := askedAt(asked, UseHA); got != "0,1,2,3" {
			t.Fatalf("HA counted at %s", got)
		}
		if got := askedAt(asked, UseMIH); got != "0,1,2,3,4,6,8,12,16,24,32" {
			t.Fatalf("MIH counted at %s", got)
		}
		if got := askedAt(asked, UseScan); got != "" {
			t.Fatalf("the scan, priced by its group count, was asked at %s", got)
		}
		if p.retired != [numStrategies]int{3, -1, -1} {
			t.Fatalf("retired %v", p.retired)
		}
		for h := 0; h <= 32; h++ {
			pl := p.Plan(h)
			if ha := pl.Cost[UseHA] > 0; ha != (h <= 3) || (pl.Retired[UseHA] == 3) != (h > 3) {
				t.Fatalf("h=%d: HA cell %v, retired %d", h, pl.Cost[UseHA], pl.Retired[UseHA])
			}
			if want := map[bool]Strategy{true: UseHA, false: UseMIH}[h < 3]; pl.Strategy != want {
				t.Fatalf("h=%d: planned %s, want %s", h, pl.Strategy, want)
			}
		}
		// HA lost to the scan at h=3 by its own cell, and MIH is the runner-up after.
		if r := p.Plan(3).Reason(); r != "mih 800 beats scan 1000 scanned groups at h=3" {
			t.Fatalf("reason at h=3: %q", r)
		}
	})
	t.Run("both retire and the scan alone extends", func(t *testing.T) {
		p, asked := fillGrid(func(s Strategy, h int) float64 {
			if h >= 24 {
				return 3 * scan
			}
			return float64(h+1) * 50 // 850 at h=16: under the scan, still counted
		})
		for s, want := range map[Strategy]string{UseHA: "0,1,2,3,4,6,8,12,16,24", UseMIH: "0,1,2,3,4,6,8,12,16,24", UseScan: ""} {
			if got := askedAt(asked, s); got != want {
				t.Fatalf("%s counted at %s, want %s", s, got, want)
			}
		}
		for h := 25; h <= 32; h++ {
			pl := p.Plan(h)
			if pl.Strategy != UseScan || pl.Versus >= 0 || pl.Cost != [numStrategies]float64{UseScan: scan} {
				t.Fatalf("h=%d: planned %s vs %s at %v", h, pl.Strategy, pl.Versus, pl.Cost)
			}
			if r := pl.Reason(); r != "scan: ha, mih over the scan from h=24" {
				t.Fatalf("h=%d: reason %q", h, r)
			}
			if want := "mih : over the scan from h=24"; !strings.Contains(p.Explain(h), want) {
				t.Fatalf("h=%d: the retirement is not explained as %q:\n%s", h, want, p.Explain(h))
			}
		}
		if pl := p.Plan(24); pl.Strategy != UseScan || pl.Versus != UseHA {
			t.Fatalf("h=24: planned %s vs %s, the retiring cells still count there", pl.Strategy, pl.Versus)
		}
		// Retiring at different thresholds names each.
		p, _ = fillGrid(func(s Strategy, h int) float64 {
			if s == UseMIH && h >= 4 || s == UseHA && h >= 12 {
				return 3 * scan
			}
			return scan
		})
		if r := p.Plan(20).Reason(); r != "scan: ha over the scan from h=12, mih over the scan from h=4" {
			t.Fatalf("reason %q", r)
		}
	})
	t.Run("nothing retires", func(t *testing.T) {
		p, asked := fillGrid(func(s Strategy, h int) float64 {
			if s == UseScan {
				return scan
			}
			return 0.9 * scan
		})
		if len(asked) != 2*11 {
			t.Fatalf("asked %d cells, want HA and MIH at all 11 grid thresholds", len(asked))
		}
		for h := 0; h <= 32; h++ {
			pl := p.Plan(h)
			if pl.Retired != [numStrategies]int{-1, -1, -1} || pl.Cost[UseHA] == 0 || pl.Cost[UseMIH] == 0 || pl.Cost[UseScan] != scan {
				t.Fatalf("h=%d: retired %v, cells %v", h, pl.Retired, pl.Cost)
			}
		}
	})
	t.Run("costs that are not monotone", func(t *testing.T) {
		p, asked := fillGrid(func(s Strategy, h int) float64 {
			switch s {
			case UseHA: // one cell over the scan retires it; the cheap ones after are never seen
				return map[bool]float64{true: 1.01 * scan, false: 0.1 * scan}[h == 2]
			}
			// MIH: exactly the scan is not over it
			return map[bool]float64{true: scan, false: 0.75 * scan}[h%2 == 0]
		})
		if got := askedAt(asked, UseHA); got != "0,1,2" {
			t.Fatalf("HA counted at %s", got)
		}
		if p.retired != [numStrategies]int{2, -1, -1} {
			t.Fatalf("retired %v", p.retired)
		}
		// MIH dips to 0.75× at h=3 and is back at 1× past it, still counted.
		if c := p.Cost(UseMIH, 3); c != 0.75*scan || p.Cost(UseMIH, 32) != scan {
			t.Fatalf("MIH at h=3: %v", c)
		}
		if c := p.Cost(UseHA, 1); c != 0.1*scan {
			t.Fatalf("HA at h=1: %v", c)
		}
		if c := p.Cost(UseHA, 3); c != 0 {
			t.Fatalf("HA priced at h=3 after retiring at h=2: %v", c)
		}
	})
}

// TestPlanIsATable: every threshold's decision is made once, in New — the
// cheapest engine with a cost cell, weighed against the runner-up — and Plan
// returns it unchanged on every call, from any goroutine, allocation-free.
func TestPlanIsATable(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	codes := clustered(rng, 2000, 32, 8, 3)
	p := autoPlanner(t, codes, Options{Seed: 4})
	want := make([]Plan, 33)
	for h := range want {
		best, second := Strategy(-1), Strategy(-1)
		for s := Strategy(0); s < numStrategies; s++ {
			switch c := p.Cost(s, h); {
			case !p.Available(s) || c == 0: // uncounted: retired below h
			case best < 0 || c < p.Cost(best, h):
				best, second = s, best
			case second < 0 || c < p.Cost(second, h):
				second = s
			}
		}
		pl := p.Plan(h)
		if pl.Strategy != best || pl.Versus != second || pl.H != h {
			t.Fatalf("h=%d: planned %s vs %s, costs %v; want %s vs %s", h, pl.Strategy, pl.Versus, pl.Cost, best, second)
		}
		// The plan carries the facts; the sentence is rendered from them on
		// demand — a lone engine names the ones that retired below h.
		s := fmt.Sprintf("%s %.0f beats %s", best, pl.Cost[best], second)
		if second < 0 {
			s = fmt.Sprintf("%s: ", best)
			if !strings.Contains(pl.Reason(), "over the scan from h=") {
				t.Fatalf("h=%d: reason %q does not name a retirement", h, pl.Reason())
			}
		}
		if !strings.Contains(pl.Reason(), s) {
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

// TestRegimeSwitch: on clustered data the counted model keeps tight
// thresholds off the scan — the crossover the multi-engine design exists
// to exploit.
func TestRegimeSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	// Large enough that the flat scan costs several times an index probe at
	// h=2; over a few thousand codes it honestly competes.
	codes := clustered(rng, 40000, 32, 160, 3)
	p := autoPlanner(t, codes, Options{Seed: 5})
	if pl := p.Plan(2); pl.Strategy == UseScan {
		t.Errorf("tight threshold routed to the scan: %+v", pl)
	}
}

// TestHAOnlyPlanner: with no MIH and no codes, the scan runs over the HA
// index's own leaf arena, so every plan is HA or the scan, counted, and
// never MIH.
func TestHAOnlyPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	codes := clustered(rng, 200, 32, 4, 2)
	idx := buildFrozen(codes, nil)
	p, err := New(Engines{HA: idx}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Available(UseMIH) || !p.Available(UseScan) || p.Engines().Groups.Count() != idx.Groups().Count() {
		t.Fatalf("MIH available %v, scan available %v over %d groups",
			p.Available(UseMIH), p.Available(UseScan), p.Engines().Groups.Count())
	}
	for h := 0; h <= 32; h++ {
		if pl := p.Plan(h); pl.Strategy == UseMIH || pl.Cost[UseMIH] != 0 || pl.Cost[UseScan] != float64(idx.Groups().Count()) {
			t.Fatalf("h=%d routed to %s at costs %v", h, pl.Strategy, pl.Cost)
		}
	}
}

// TestForcedEnginesWithoutTheirData: a planner built on HA alone still
// scans — over HA's leaf arena, returning what HA returns, not an empty
// answer — and forcing MIH on it panics with a message that names MIH.
func TestForcedEnginesWithoutTheirData(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	codes := clustered(rng, 2000, 32, 8, 3)
	p, err := New(Engines{HA: buildFrozen(codes, nil)}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := codes[17].Clone()
	q.FlipBit(3)
	ha, _ := p.SelectWith(UseHA, q, 3)
	scanned, stats := p.SelectWith(UseScan, q, 3)
	if len(ha) == 0 || !equalIDs(scanned, ha) || stats.DistanceComputations == 0 {
		t.Fatalf("scan returned %d ids after %d distances, HA %d", len(scanned), stats.DistanceComputations, len(ha))
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MIH") {
			t.Fatalf("forced MIH without the engine: recovered %v", r)
		}
	}()
	p.SelectWith(UseMIH, q, 3)
}

// TestSameSeedSamePlan: the plan table is a function of the engines and the
// seed — two builds agree cell for cell, at GOMAXPROCS 1 and 2.
func TestSameSeedSamePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(214))
	codes := clustered(rng, 20000, 64, 40, 3)
	first := autoPlanner(t, codes, Options{Seed: 3})
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		p, err := New(first.Engines(), Options{Seed: 3})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.plans, first.plans) {
			for h := range p.plans {
				if p.plans[h] != first.plans[h] {
					t.Fatalf("GOMAXPROCS %d, h=%d: %+v, first build %+v", procs, h, p.plans[h], first.plans[h])
				}
			}
		}
	}
}

// TestBenchmarkShapePlansMIH guards the weights on BenchmarkNew's shard
// shape, where the benchmark's point and wide selects run: MIH at h=2, h=8
// and h=12 for every seed 1–10. Its h=12 cell is counted — more than its
// lookups and probes alone cost, since it verifies too, and less than the
// scan — and MIH retires at h=16.
func TestBenchmarkShapePlansMIH(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 150k-code engines")
	}
	eng := benchmarkShape(t)
	m := eng.MIH.(*mih.Index)
	scan := float64(eng.Groups.Count())
	for seed := int64(1); seed <= 10; seed++ {
		p, err := New(eng, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []int{2, 8, 12} {
			if pl := p.Plan(h); pl.Strategy != UseMIH {
				t.Errorf("seed %d, h=%d: planned %s at costs %v", seed, h, pl.Strategy, pl.Cost)
			}
		}
		if c := p.Cost(UseMIH, 12); p.retired[UseMIH] != 16 || c <= mihOpCost*float64(m.Probes(12)) || c >= scan {
			t.Errorf("seed %d: MIH retired at h=%d, its h=12 cell %v, closed form %d probes, scan %v", seed, p.retired[UseMIH], c, m.Probes(12), scan)
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
	idx := buildFrozen(codes, ids)
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
	for _, want := range []string{"h=3", "ha", "mih", "scan", "counted at load", "->"} {
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
	idx := buildFrozen(codes, nil)
	if _, err := New(Engines{HA: idx, Codes: codes, IDs: []int{1}}, Options{}); err == nil {
		t.Error("mismatched id count accepted")
	}
}

// TestWrongLengthQueryPanics: a query of another code length than the
// engine's panics on every engine — HA, MIH and the scan — whether it comes
// through a core.Searcher, core.SearchBatch or SelectWith, rather than being
// answered from the words it happens to share with the codes.
func TestWrongLengthQueryPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	codes := make([]bitvec.Code, 500)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, 64)
	}
	p := autoPlanner(t, codes, Options{Seed: 1})
	q := bitvec.Rand(rng, 32)
	for s := Strategy(0); s < numStrategies; s++ {
		eng := p.Index(s)
		paths := []struct {
			name string
			run  func()
		}{
			{"core.NewSearcher", func() { core.NewSearcher(eng).Search(q, 20) }},
			// One worker: the search runs on this goroutine, where the
			// panic can be recovered.
			{"core.SearchBatch", func() { core.SearchBatch(eng, []bitvec.Code{q}, 20, 1) }},
			{"SelectWith", func() { p.SelectWith(s, q, 20) }},
		}
		for _, path := range paths {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s over %s: a 32-bit query against 64-bit codes did not panic", path.name, s)
					}
				}()
				path.run()
			}()
		}
	}
}

// buildFrozen is core.BuildFrozen over codes and their ids, which it leaves
// as they are.
func buildFrozen(codes []bitvec.Code, ids []int) *core.FrozenIndex {
	var rows []uint64
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	return core.BuildFrozen(codes[0].Len(), rows, slices.Clone(ids), core.Options{})
}
