// Package planner routes each Hamming-select to the cheapest of three
// engines — the HA-Index walk, multi-index hashing, and the brute scan — by
// the paper's Section 4.7 cost analysis: an HA search costs the nodes and
// edges it visits, not a stopwatch reading. The walk's work collapses toward
// a scan's once the threshold stops pruning, while MIH's probe count
// explodes with its pigeonhole radius; neither bound ranks the engines in
// closed form, because how many patterns the walk checks and how many
// candidates MIH verifies depend on the data. So New *counts*: it runs a
// fixed, seeded set of sample probes through HA and MIH on a threshold grid,
// reads the work each search reports in core.SearchStats, and prices it in
// scanned groups — the scan costs one per distinct code at every threshold.
// An engine whose count cost exceeds the scan's at a grid threshold is not
// run past it — its work only grows with h — and MIH is not run at all where
// its closed-form probe count alone is over the scan. New reads no clock:
// the same engines and seed give the same plan table on any machine, under
// any load. Serving never changes the model: a decision is a table lookup.
//
// The planner is immutable after New, so everything but Select and
// SelectWith is safe for concurrent use.
package planner

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mih"
)

// Strategy names an access path.
type Strategy int

const (
	// UsePlan is no access path: it pins none, leaving each plan to pick
	// its own at the threshold.
	UsePlan Strategy = iota - 1
	// UseHA routes the query through the HA-Index walk.
	UseHA
	// UseMIH routes the query through multi-index hashing.
	UseMIH
	// UseScan routes the query through the linear scan.
	UseScan

	numStrategies
)

func (s Strategy) String() string {
	switch s {
	case UsePlan:
		return "auto"
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
// required, and the scan is always available; MIH is optional — a planner
// without it never chooses it.
type Engines struct {
	// HA is the frozen HA-Index.
	HA *core.FrozenIndex
	// MIH is the multi-index-hashing engine (a *mih.Index), or nil.
	MIH core.Engine
	// Groups is the slab the brute scan walks and sample probes are drawn
	// from. Empty selects the frozen HA-Index's own leaf arena
	// (FrozenIndex.Groups), so the scan costs no memory.
	Groups core.GroupView
	// Codes and IDs are the same thing as plain slices: New packs them into
	// Groups once (one group per tuple) and drops them. IDs defaults to
	// positions when nil. Ignored when Groups is set.
	Codes []bitvec.Code
	IDs   []int
}

// Options tunes the planner. The zero value selects sane defaults.
type Options struct {
	// Seed drives probe sampling and the distance histogram: the same
	// engines and seed give the same plan table.
	Seed int64
}

// Plan describes one routing decision.
type Plan struct {
	Strategy Strategy
	// EstimatedResults is the selectivity-based expected answer count.
	EstimatedResults float64
	// Cost is the counted per-query cost of each strategy in scanned groups
	// (0 = engine unavailable, or retired below H).
	Cost [numStrategies]float64
	// H is the (clamped) threshold the decision was made at.
	H int
	// Versus is the runner-up the choice was weighed against, -1 when no
	// other engine has a cost cell at H.
	Versus Strategy
	// Retired[s] is the grid threshold below H at which engine s first cost
	// more than the scan, past which it was not run; -1 when s was run up to
	// H or never retired.
	Retired [numStrategies]int
}

// Reason renders the human-readable justification (EXPLAIN) from the facts
// the plan carries; nothing is formatted on the request path.
func (pl Plan) Reason() string {
	s, v := pl.Strategy, pl.Versus
	if v >= 0 {
		return fmt.Sprintf("%s %.0f beats %s %.0f scanned groups at h=%d", s, pl.Cost[s], v, pl.Cost[v], pl.H)
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
		fmt.Fprintf(&b, " over the scan from h=%d", at)
	}
	// The scan always has a cell, so a lone engine means HA retired below H.
	return fmt.Sprintf("%s: %s", s, b.String())
}

// Planner owns the engine set and the counted cost model.
type Planner struct {
	eng  Engines
	n    int
	bits int

	distHist []float64 // P(pairwise distance = d), sampled

	// idx[s] serves strategy s — the frozen walk, MIH, the scan over Groups —
	// and is nil when s is unavailable.
	idx [numStrategies]core.Engine
	// plans[h] is the decision at threshold h, cost cells included, written
	// only by New.
	plans []Plan
	// retired[s] is the grid threshold at which engine s first cost more
	// than the scan, -1 if it never did.
	retired [numStrategies]int

	// sr[s] backs the single-goroutine Select/SelectWith convenience paths
	// for strategy s, created lazily.
	sr [numStrategies]*core.Searcher
}

// New builds a planner over an existing engine set, counts its cost model
// and decides every threshold.
func New(eng Engines, opts Options) (*Planner, error) {
	if eng.HA == nil {
		return nil, fmt.Errorf("planner: HA engine is required")
	}
	bits := eng.HA.Length()
	if eng.MIH != nil && eng.MIH.Groups().Length != bits {
		return nil, fmt.Errorf("planner: MIH engine is %d-bit, HA is %d-bit", eng.MIH.Groups().Length, bits)
	}
	if eng.Groups.Count() == 0 {
		if len(eng.Codes) == 0 {
			eng.Groups = eng.HA.Groups()
		} else {
			var err error
			if eng.Groups, err = packGroups(bits, eng.Codes, eng.IDs); err != nil {
				return nil, err
			}
		}
	}
	eng.Codes, eng.IDs = nil, nil
	p := &Planner{eng: eng, n: eng.HA.Len(), bits: bits, plans: make([]Plan, bits+1), retired: [numStrategies]int{-1, -1, -1}}
	p.idx[UseHA], p.idx[UseMIH], p.idx[UseScan] = eng.HA, eng.MIH, eng.Groups
	rng := rand.New(rand.NewSource(opts.Seed))
	p.distHist = make([]float64, bits+1)
	if eng.Groups.Count() > 0 {
		p.sampleDistanceHistogram(rng)
	}
	p.count(rng)
	p.decide()
	return p, nil
}

// decide fills the rest of every threshold's plan from its cost cells: the
// cheapest engine, weighed against the runner-up. A retired engine has no
// cell past its retirement and is never picked there.
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
			switch c := pl.Cost[s]; {
			case c == 0:
			case best < 0 || c < pl.Cost[best]:
				best, second = s, best
			case second < 0 || c < pl.Cost[second]:
				second = s
			}
		}
		pl.Strategy, pl.Versus = best, second
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
// MIH and the scan on its leaf arena — and returns its planner. ids
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
	return New(Engines{HA: ha, MIH: m}, opts)
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

// grid returns the thresholds counted at build time: dense where the
// engines cross over at small h, sparse toward the full code width.
func (p *Planner) grid() []int {
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

// sampleProbes is the number of queries each (engine, grid threshold) cell
// averages its count over.
const sampleProbes = 8

// The weights that turn counted work into scanned groups, the scan's unit:
// one HA distance computation (a pattern or a leaf checked) costs about as
// much as scanning 9 groups, one MIH operation (a key looked up, probed or
// walked, or a candidate verified) about 18. Fitted on 150k clustered 64-bit
// codes against ns per query at h = 0–24; DESIGN.md ("Counted cost model")
// has the fit.
const (
	haOpCost  = 9
	mihOpCost = 18
)

// count fills every cost cell by running sampleProbes data-distributed
// queries through HA and MIH at the grid thresholds fill asks for and
// pricing the work they report; the scan's cell is its group count. An MIH
// cell whose closed-form probe count alone is over the scan is priced from
// that count, without running a query.
func (p *Planner) count(rng *rand.Rand) {
	var queries []bitvec.Code
	if p.eng.Groups.Count() > 0 {
		queries = make([]bitvec.Code, sampleProbes)
		for i := range queries {
			q := p.sampleCode(rng).Clone()
			// Perturb so exact-duplicate groups do not make h=0 look free.
			for f := 0; f < 2; f++ {
				q.FlipBit(rng.Intn(p.bits))
			}
			queries[i] = q
		}
	}
	// ops is the mean work per query of one engine at h, as work reads it.
	ops := func(sr *core.Searcher, h int, work func(core.SearchStats) int) float64 {
		n := 0
		for _, q := range queries {
			sr.Search(q, h)
			n += work(sr.Stats)
		}
		return float64(n) / float64(max(len(queries), 1))
	}
	scan := float64(p.eng.Groups.Count())
	srHA := core.NewSearcher(p.idx[UseHA])
	var srMIH *core.Searcher
	var m *mih.Index
	if p.eng.MIH != nil {
		srMIH = core.NewSearcher(p.eng.MIH)
		m, _ = p.eng.MIH.(*mih.Index)
	}
	p.fill(p.grid(), scan, func(s Strategy, h int) float64 {
		if s == UseHA {
			return haOpCost * ops(srHA, h, func(st core.SearchStats) int { return st.DistanceComputations })
		}
		if m != nil {
			if c := mihOpCost * float64(m.Probes(h)); c > scan {
				return c
			}
		}
		return mihOpCost * ops(srMIH, h, func(st core.SearchStats) int { return st.NodesVisited + st.DistanceComputations })
	})
}

// fill walks the grid in ascending h and fills every cost cell: the scan's
// is scan at every threshold, and cell(s, h) is HA's or MIH's per-query cost
// at grid threshold h, asked once for every such engine still live there.
// After each threshold, a cell over the scan's retires its engine: it is
// never asked again, and its cells past that threshold stay 0, so no plan
// there picks it. Retiring is sound because neither index gets cheaper as h
// grows — MIH at h+1 probes a superset of the keys and candidates it probes
// at h, and the HA walk prunes a subset of the nodes — while the scan's work
// is flat. Once the scan is the only engine left the walk stops. Cells
// between grid thresholds are interpolated linearly, and no cell is below 1.
func (p *Planner) fill(grid []int, scan float64, cell func(s Strategy, h int) float64) {
	var live [numStrategies]bool
	for s := Strategy(0); s < UseScan; s++ {
		live[s] = p.idx[s] != nil
	}
	var counted [numStrategies]int // grid thresholds each engine was counted at
	cells := make([][numStrategies]float64, 0, len(grid))
	for _, h := range grid {
		var row [numStrategies]float64
		others := false
		for s := Strategy(0); s < UseScan; s++ {
			if !live[s] {
				continue
			}
			row[s] = cell(s, h)
			counted[s]++
			if row[s] > scan {
				live[s], p.retired[s] = false, h
			}
			others = others || live[s]
		}
		cells = append(cells, row)
		if !others {
			break
		}
	}
	for h := range p.plans {
		p.plans[h].Cost[UseScan] = max(scan, 1)
	}
	for s := Strategy(0); s < UseScan; s++ {
		last := counted[s] - 1
		for gi := 0; gi <= last; gi++ {
			lo, hi, next := grid[gi], grid[gi], cells[gi][s]
			if gi < last {
				hi, next = grid[gi+1], cells[gi+1][s]
			}
			for h := lo; h <= hi; h++ {
				v := cells[gi][s]
				if hi > lo {
					t := float64(h-lo) / float64(hi-lo)
					v = (1-t)*cells[gi][s] + t*next
				}
				p.plans[h].Cost[s] = max(v, 1)
			}
		}
	}
}

// Cost returns the counted per-query cost of strategy s at threshold h in
// scanned groups (0 = unavailable, or retired below h).
func (p *Planner) Cost(s Strategy, h int) float64 {
	if s < 0 || s >= numStrategies {
		return 0
	}
	return p.plans[p.clamp(h)].Cost[s]
}

// Available reports whether strategy s can serve queries.
func (p *Planner) Available(s Strategy) bool { return p.Index(s) != nil }

// Index returns the engine that serves strategy s — the frozen HA-Index, MIH,
// or the scan over the shared group slab — or nil when s is unavailable.
// SelectWith, a segment of an lsm.Shard and a join reducer each run their
// own core.Searcher over it.
func (p *Planner) Index(s Strategy) core.Engine {
	if s < 0 || s >= numStrategies {
		return nil
	}
	return p.idx[s]
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
// Forcing an unavailable strategy (MIH on a planner built without it)
// panics.
func (p *Planner) SelectWith(s Strategy, q bitvec.Code, h int) ([]int, core.SearchStats) {
	if !p.Available(s) {
		panic(fmt.Sprintf("planner: SelectWith(%s) on a planner built without an %s engine", s, strings.ToUpper(s.String())))
	}
	if p.sr[s] == nil {
		p.sr[s] = core.NewSearcher(p.idx[s])
	}
	out := p.sr[s].SearchAppend(nil, q, h)
	return out, p.sr[s].Stats
}

// Explain renders the decision for threshold h, EXPLAIN-style.
func (p *Planner) Explain(h int) string {
	pl := p.Plan(h)
	var b strings.Builder
	fmt.Fprintf(&b, "Hamming-select h=%d over %d tuples (%d-bit codes)\n", h, p.n, p.bits)
	fmt.Fprintf(&b, "  estimated selectivity: %.4f (~%.0f results)\n", p.Selectivity(h), pl.EstimatedResults)
	for s := Strategy(0); s < numStrategies; s++ {
		if !p.Available(s) {
			fmt.Fprintf(&b, "  %-4s: unavailable\n", s)
		} else if at := pl.Retired[s]; at >= 0 {
			fmt.Fprintf(&b, "  %-4s: over the scan from h=%d, not run past it\n", s, at)
		} else {
			fmt.Fprintf(&b, "  %-4s: %.0f scanned groups/query (counted at load)\n", s, pl.Cost[s])
		}
	}
	fmt.Fprintf(&b, "  -> %s\n", pl.Reason()) // the reason names the strategy first
	return b.String()
}

// Engines exposes the engine set the planner was built over.
func (p *Planner) Engines() Engines { return p.eng }
