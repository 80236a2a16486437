// Package planner routes each Hamming-select to the cheapest of three
// engines — the HA-Index walk, multi-index hashing, and the brute scan — in
// the spirit of the paper's Section 4.7 cost analysis: the walk's search
// cost is bounded by its nodes and edges and collapses toward a scan when
// the threshold stops pruning, while MIH's probe count explodes with its
// pigeonhole radius but ignores the walk's cliff. Neither analytical bound
// ranks real engines reliably across (bits, threshold, n, distribution), so
// the planner's cost model is *measured*: at build time it calibrates
// per-engine nanosecond costs by timing sampled probes over a threshold
// grid (interpolating between grid points) and decides every threshold
// once. An engine that costs over twice the scan at a grid threshold is not
// timed past it — its work only grows with h, the scan's does not — so the
// grid stops early once the scan is all that is left. Serving never changes
// the model: a decision is a table lookup.
//
// The planner is immutable after New, so everything but Select and
// SelectWith is safe for concurrent use.
package planner

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mih"
)

// Strategy names an access path.
type Strategy int

const (
	// UseHA routes the query through the HA-Index walk.
	UseHA Strategy = iota
	// UseMIH routes the query through multi-index hashing.
	UseMIH
	// UseScan routes the query through the linear scan.
	UseScan

	numStrategies
)

func (s Strategy) String() string {
	switch s {
	case UseHA:
		return "ha"
	case UseMIH:
		return "mih"
	case UseScan:
		return "scan"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategy maps the -engine flag spelling to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "ha", "ha-index":
		return UseHA, nil
	case "mih":
		return UseMIH, nil
	case "scan":
		return UseScan, nil
	}
	return 0, fmt.Errorf("planner: unknown engine %q (want ha, mih, or scan)", name)
}

// Engines is the set of access paths the planner chooses among. HA is
// required; MIH and the scan's codes are optional — a missing engine is
// simply never chosen.
type Engines struct {
	// HA is the frozen HA-Index.
	HA *core.FrozenIndex
	// MIH is the adapted multi-index-hashing engine, or nil.
	MIH *core.EngineIndex
	// Groups is the slab the brute scan walks and calibration probes are
	// drawn from — normally the frozen HA-Index's own leaf arena
	// (FrozenIndex.Groups), so the scan costs no memory. Empty disables both
	// the scan path and calibration.
	Groups core.GroupView
	// Codes and IDs are the same thing as plain slices, for callers without
	// a frozen index: New packs them into Groups once (one group per tuple)
	// and drops them. IDs defaults to positions when nil. Ignored when
	// Groups is set.
	Codes []bitvec.Code
	IDs   []int
}

// Options tunes the planner. The zero value selects sane defaults.
type Options struct {
	// Seed drives probe sampling and the distance histogram.
	Seed int64
	// CalibProbes is the number of timed queries per (engine, grid
	// threshold) during build-time calibration; 0 selects 2, negative
	// disables calibration (every threshold then plans HA).
	CalibProbes int
}

// Plan describes one routing decision.
type Plan struct {
	Strategy Strategy
	// EstimatedResults is the selectivity-based expected answer count.
	EstimatedResults float64
	// CostNs is the calibrated per-query cost of each strategy in
	// nanoseconds (0 = uncalibrated or engine unavailable).
	CostNs [numStrategies]float64
	// H is the (clamped) threshold the decision was made at.
	H int
	// Versus is the runner-up the choice was weighed against, -1 when no
	// other engine has a cost cell at H.
	Versus Strategy
	// Retired[s] is the grid threshold below H past which calibration
	// stopped timing engine s, because it cost over retireFactor times the
	// scan there; -1 when s was timed up to H or never retired.
	Retired [numStrategies]int
}

// Reason renders the human-readable justification (EXPLAIN) from the facts
// the plan carries; nothing is formatted on the request path.
func (pl Plan) Reason() string {
	s, v := pl.Strategy, pl.Versus
	if v >= 0 {
		return fmt.Sprintf("%s %.0fns beats %s %.0fns at h=%d", s, pl.CostNs[s], v, pl.CostNs[v], pl.H)
	}
	var b strings.Builder
	for r := Strategy(0); r < numStrategies; r++ {
		at := pl.Retired[r]
		if at < 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
		if r+1 < numStrategies && pl.Retired[r+1] == at {
			continue // named with the next engine, which retired at the same h
		}
		fmt.Fprintf(&b, " not timed past h=%d", at)
	}
	if b.Len() == 0 {
		return fmt.Sprintf("planner uncalibrated; %s by default", s)
	}
	return fmt.Sprintf("%s: %s (over %d× the scan)", s, b.String(), retireFactor)
}

// Planner owns the engine set and the measured cost model.
type Planner struct {
	eng  Engines
	n    int
	bits int

	distHist []float64 // P(pairwise distance = d), sampled

	avail [numStrategies]bool
	// plans[h] is the decision at threshold h, cost cells included, written
	// only by New.
	plans []Plan
	// retired[s] is the grid threshold at which calibration retired engine
	// s, -1 if it did not.
	retired [numStrategies]int

	// srHA and srMIH back the single-goroutine Select/SelectWith
	// convenience paths, created lazily.
	srHA, srMIH *core.Searcher
}

// New builds a planner over an existing engine set, calibrates its cost
// model (unless opts.CalibProbes is negative) and decides every threshold.
func New(eng Engines, opts Options) (*Planner, error) {
	if eng.HA == nil {
		return nil, fmt.Errorf("planner: HA engine is required")
	}
	bits := eng.HA.Length()
	if eng.MIH != nil && eng.MIH.Length() != bits {
		return nil, fmt.Errorf("planner: MIH engine is %d-bit, HA is %d-bit", eng.MIH.Length(), bits)
	}
	if eng.Groups.Count() == 0 && len(eng.Codes) > 0 {
		var err error
		if eng.Groups, err = packGroups(bits, eng.Codes, eng.IDs); err != nil {
			return nil, err
		}
	}
	eng.Codes, eng.IDs = nil, nil
	p := &Planner{eng: eng, n: eng.HA.Len(), bits: bits, plans: make([]Plan, bits+1), retired: [numStrategies]int{-1, -1, -1}}
	p.avail[UseHA] = true
	p.avail[UseMIH] = eng.MIH != nil
	p.avail[UseScan] = eng.Groups.Count() > 0
	rng := rand.New(rand.NewSource(opts.Seed))
	p.distHist = make([]float64, bits+1)
	if p.avail[UseScan] {
		p.sampleDistanceHistogram(rng)
	}
	probes := opts.CalibProbes
	if probes == 0 {
		probes = 2
	}
	if probes > 0 && p.avail[UseScan] {
		p.calibrate(probes, rng)
	}
	p.decide()
	return p, nil
}

// decide fills the rest of every threshold's plan from its cost cells: the
// cheapest calibrated engine, weighed against the runner-up. A retired
// engine has no cell past its retirement and is never picked there. Without
// calibration every cell is 0 and the plan stays on HA.
func (p *Planner) decide() {
	for h := range p.plans {
		pl := &p.plans[h]
		pl.H, pl.EstimatedResults = h, p.Selectivity(h)*float64(p.n)
		for s, at := range p.retired {
			pl.Retired[s] = -1
			if at >= 0 && at < h {
				pl.Retired[s] = at
			}
		}
		best, second := Strategy(-1), Strategy(-1)
		for s := Strategy(0); s < numStrategies; s++ {
			switch c := pl.CostNs[s]; {
			case c == 0:
			case best < 0 || c < pl.CostNs[best]:
				best, second = s, best
			case second < 0 || c < pl.CostNs[second]:
				second = s
			}
		}
		pl.Strategy, pl.Versus = best, second
		if best < 0 {
			pl.Strategy = UseHA
		}
	}
}

// packGroups lays plain code and id slices out as a group view, one group
// per tuple in input order; ids default to positions.
func packGroups(bits int, codes []bitvec.Code, ids []int) (core.GroupView, error) {
	if ids != nil && len(ids) != len(codes) {
		return core.GroupView{}, fmt.Errorf("planner: %d ids for %d codes", len(ids), len(codes))
	}
	if ids == nil {
		ids = make([]int, len(codes))
		for i := range ids {
			ids[i] = i
		}
	}
	v := core.GroupView{Length: bits, IDStart: make([]int32, len(codes)+1), IDs: ids}
	v.Codes = make([]uint64, 0, len(codes)*v.Words())
	for i, c := range codes {
		if c.Len() != bits {
			return core.GroupView{}, fmt.Errorf("planner: code %d is %d-bit, HA is %d-bit", i, c.Len(), bits)
		}
		v.Codes = append(v.Codes, c.Words()...)
		v.IDStart[i+1] = int32(i + 1)
	}
	return v, nil
}

// sampleCode draws the code of a uniformly random tuple (not group: a code
// held by many tuples is drawn as often as the data holds it).
func (p *Planner) sampleCode(rng *rand.Rand) bitvec.Code {
	v := p.eng.Groups
	t := int32(rng.Intn(len(v.IDs)))
	// The first group that ends past tuple t holds it; the last group needs
	// no test, it holds whatever no earlier one does.
	return v.Code(sort.Search(v.Count()-1, func(gi int) bool { return v.IDStart[gi+1] > t }))
}

// Auto builds the full engine set over the codes — the frozen HA-Index, and
// MIH and the scan on its leaf arena — and returns a calibrated planner. ids
// default to positions.
func Auto(codes []bitvec.Code, ids []int, opts Options) (*Planner, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("planner: empty dataset")
	}
	// The build sorts its slab in place: it gets the packed words and a copy
	// of the ids (or fresh positions), not the caller's slices.
	v, err := packGroups(codes[0].Len(), codes, slices.Clone(ids))
	if err != nil {
		return nil, err
	}
	ha := core.BuildFrozen(v.Length, v.Codes, v.IDs, core.Options{})
	m, err := mih.FromGroups(ha.Groups(), mih.Options{})
	if err != nil {
		return nil, err
	}
	return New(Engines{HA: ha, MIH: core.AsIndex(m), Groups: ha.Groups()}, opts)
}

// sampleDistanceHistogram estimates P(dist = d) from random tuple pairs.
func (p *Planner) sampleDistanceHistogram(rng *rand.Rand) {
	const pairs = 2000
	for i := 0; i < pairs; i++ {
		a := p.sampleCode(rng)
		p.distHist[a.Distance(p.sampleCode(rng))]++
	}
	for d := range p.distHist {
		p.distHist[d] /= pairs
	}
}

// calibGrid returns the thresholds measured at build time: dense where the
// engines cross over at small h, sparse toward the full code width.
func (p *Planner) calibGrid() []int {
	grid := []int{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96}
	out := grid[:0]
	for _, h := range grid {
		if h <= p.bits {
			out = append(out, h)
		}
	}
	if len(out) == 0 || out[len(out)-1] != p.bits {
		out = append(out, p.bits)
	}
	return out
}

// retireFactor is how far over the scan's cell an HA or MIH cell may cost
// before calibration stops timing that engine. Stopping is sound because
// neither engine gets cheaper as h grows — MIH at h+1 probes a superset of
// the keys and candidates it probes at h, and the HA walk prunes a subset of
// the nodes — while the scan's work is flat in h. The factor is 2, not 1, to
// absorb the noise of a two-probe cell: on the benchmark's 150k-code shards
// the HA and MIH cells at h=6–9 read 0.6–1.1× the scan's.
const retireFactor = 2

// calibrate fills every cost cell by timing each engine on `probes`
// data-distributed queries at the grid thresholds fill asks for. The cells
// are the whole cost model, so nothing cold may be timed into them: the
// probe set runs once, untimed, through every engine first — MIH's searcher
// allocates its scratch (a visited stamp per group) on first use, and a
// mapped arena faults its pages in on first touch.
func (p *Planner) calibrate(probes int, rng *rand.Rand) {
	queries := make([]bitvec.Code, probes)
	for i := range queries {
		q := p.sampleCode(rng).Clone()
		// Perturb so exact-duplicate groups do not make h=0 look free.
		for f := 0; f < 2; f++ {
			q.FlipBit(rng.Intn(p.bits))
		}
		queries[i] = q
	}
	srHA := core.NewSearcher(p.eng.HA)
	var srMIH *core.Searcher
	if p.avail[UseMIH] {
		srMIH = core.NewSearcher(p.eng.MIH)
	}
	var buf []int // the scan's result buffer, reused so it is timed as served
	run := func(s Strategy, h int) {
		for _, q := range queries {
			switch s {
			case UseHA:
				srHA.Search(q, h)
			case UseMIH:
				srMIH.Search(q, h)
			case UseScan:
				buf = p.eng.Groups.Scan(q.Words(), h, buf[:0])
			}
		}
	}
	grid := p.calibGrid()
	for s := Strategy(0); s < numStrategies; s++ {
		if p.avail[s] {
			run(s, grid[0])
		}
	}
	p.fill(grid, func(s Strategy, h int) float64 {
		start := time.Now()
		run(s, h)
		return float64(time.Since(start).Nanoseconds()) / float64(len(queries))
	})
}

// fill walks the calibration grid in ascending h and fills every cost cell
// from the cells measured at the grid thresholds: cell(s, h) is engine s's
// per-query cost at grid threshold h, asked once for every engine still timed
// there. After each threshold, an HA or MIH cell over retireFactor times the
// scan's retires that engine: it is never asked again, and its cells past
// that threshold stay 0, so no plan there picks it. The scan, which must be
// available, never retires; once it is the only engine left the walk stops,
// and its last cell stands for every higher threshold. Cells between grid
// thresholds are interpolated linearly. All timing is in cell: over the same
// cells, fill is deterministic.
func (p *Planner) fill(grid []int, cell func(s Strategy, h int) float64) {
	live := p.avail
	var timed [numStrategies]int // grid thresholds each engine was timed at
	measured := make([][numStrategies]float64, 0, len(grid))
	for _, h := range grid {
		var row [numStrategies]float64
		for s := Strategy(0); s < numStrategies; s++ {
			if live[s] {
				row[s] = cell(s, h)
				timed[s]++
			}
		}
		measured = append(measured, row)
		others := false
		for s := Strategy(0); s < UseScan; s++ {
			if live[s] && row[s] > retireFactor*row[UseScan] {
				live[s], p.retired[s] = false, h
			}
			others = others || live[s]
		}
		if !others {
			break
		}
	}
	for s := Strategy(0); s < numStrategies; s++ {
		last := timed[s] - 1
		for gi := 0; gi <= last; gi++ {
			lo, hi, next := grid[gi], grid[gi], measured[gi][s]
			if gi < last {
				hi, next = grid[gi+1], measured[gi+1][s]
			} else if s == UseScan {
				hi = p.bits
			}
			for h := lo; h <= hi; h++ {
				v := measured[gi][s]
				if hi > lo {
					t := float64(h-lo) / float64(hi-lo)
					v = (1-t)*measured[gi][s] + t*next
				}
				p.plans[h].CostNs[s] = math.Max(v, 1)
			}
		}
	}
}

// Scan is the brute-force path over the shared group slab: the ids of every
// tuple within distance h of q are appended to out, the work done added to
// stats. It is stateless and safe to run from many goroutines at once.
func (p *Planner) Scan(q bitvec.Code, h int, out []int, stats *core.SearchStats) []int {
	ng := p.eng.Groups.Count()
	stats.DistanceComputations += ng
	stats.LeavesChecked += ng
	return p.eng.Groups.Scan(q.Words(), h, out)
}

// CostNs returns the calibrated per-query cost of strategy s at threshold h
// in nanoseconds (0 = uncalibrated or unavailable).
func (p *Planner) CostNs(s Strategy, h int) float64 {
	if s < 0 || s >= numStrategies {
		return 0
	}
	return p.plans[p.clamp(h)].CostNs[s]
}

// Available reports whether strategy s can serve queries.
func (p *Planner) Available(s Strategy) bool {
	return s >= 0 && s < numStrategies && p.avail[s]
}

func (p *Planner) clamp(h int) int {
	if h < 0 {
		return 0
	}
	if h > p.bits {
		return p.bits
	}
	return h
}

// Selectivity returns the estimated fraction of tuples within distance h of
// a data-distributed query.
func (p *Planner) Selectivity(h int) float64 {
	if h >= p.bits {
		return 1
	}
	s := 0.0
	for d := 0; d <= h && d < len(p.distHist); d++ {
		s += p.distHist[d]
	}
	return s
}

// Plan returns the access path decided for threshold h at load: a table
// lookup, with no write and no atomic, on every request.
func (p *Planner) Plan(h int) Plan {
	return p.plans[p.clamp(h)]
}

// Select answers the Hamming-select through the planned path and returns
// the plan that was used. Select and SelectWith reuse planner-owned
// searchers and so must not be called concurrently; concurrent servers run
// their own Searchers and consult Plan directly.
func (p *Planner) Select(q bitvec.Code, h int) ([]int, core.SearchStats, Plan) {
	pl := p.Plan(h)
	out, stats := p.SelectWith(pl.Strategy, q, h)
	return out, stats, pl
}

// SelectWith answers the Hamming-select through one forced strategy.
func (p *Planner) SelectWith(s Strategy, q bitvec.Code, h int) ([]int, core.SearchStats) {
	var out []int
	var stats core.SearchStats
	switch s {
	case UseMIH:
		if p.srMIH == nil {
			p.srMIH = core.NewSearcher(p.eng.MIH)
		}
		out = append(out, p.srMIH.Search(q, h)...)
		stats = p.srMIH.Stats
	case UseScan:
		out = p.Scan(q, h, nil, &stats)
	default:
		if p.srHA == nil {
			p.srHA = core.NewSearcher(p.eng.HA)
		}
		out = append(out, p.srHA.Search(q, h)...)
		stats = p.srHA.Stats
	}
	return out, stats
}

// Explain renders the decision for threshold h, EXPLAIN-style.
func (p *Planner) Explain(h int) string {
	pl := p.Plan(h)
	var b strings.Builder
	fmt.Fprintf(&b, "Hamming-select h=%d over %d tuples (%d-bit codes)\n", h, p.n, p.bits)
	fmt.Fprintf(&b, "  estimated selectivity: %.4f (~%.0f results)\n", p.Selectivity(h), pl.EstimatedResults)
	for s := Strategy(0); s < numStrategies; s++ {
		if !p.avail[s] {
			fmt.Fprintf(&b, "  %-4s: unavailable\n", s)
		} else if at := pl.Retired[s]; at >= 0 {
			fmt.Fprintf(&b, "  %-4s: not timed past h=%d (over %d× the scan there)\n", s, at, retireFactor)
		} else if pl.CostNs[s] == 0 {
			fmt.Fprintf(&b, "  %-4s: uncalibrated\n", s)
		} else {
			fmt.Fprintf(&b, "  %-4s: %.0f ns/query (calibrated at load)\n", s, pl.CostNs[s])
		}
	}
	fmt.Fprintf(&b, "  -> %s: %s\n", pl.Strategy, pl.Reason())
	return b.String()
}

// Engines exposes the planner's engine set (e.g. so a server can share the
// same indexes for forced-engine requests).
func (p *Planner) Engines() Engines { return p.eng }
