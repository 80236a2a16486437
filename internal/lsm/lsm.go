// Package lsm is the mutable serving tier: a log-structured shard that
// layers a small memtable over a stack of immutable compiled segments
// (core.FrozenIndex), the way an LSM storage engine layers a memtable over
// sorted runs.
//
// The memtable is a flat slab, one row per live entry — the code's words
// packed back to back, the tuple id beside them, a map from id to row — that
// every search scans linearly: at a few thousand rows the scan is the right
// engine, and no write ever runs an H-Build. Writes are upserts keyed by
// tuple id. An Insert appends a row, or overwrites the words of the row the
// id already has; if the id is live in a frozen segment, that segment masks
// the old version. A Delete of a memtable id moves the last row into the
// hole; a delete of a frozen id is masked in its segment. When the memtable passes
// a size threshold a background goroutine seals it: under the write lock
// core.BuildFrozen bulk-loads the slab (the paper's H-Build, Algorithm 1)
// straight into a segment of its own arenas, appended to the stack in one
// epoch-bumped state update, and the slab starts over empty. No pointer index
// is ever built here: the paper's H-Insert and H-Delete (Algorithms 2-3) stay
// with it in core, for the library API; this tier does not use them.
//
// Every segment is planned as it joins the stack, one way: off the write
// lock, mih.FromGroups builds multi-index hashing over the segment's own leaf
// arena and planner.New counts which of HA, MIH and the scan each threshold
// should run. The plan is attached atomically — HA answers only while it is
// being counted — and a search runs each segment through the engine its own
// plan picks at h: MIH on a large segment, often the scan on a small one. A
// search may pin one engine instead, which then runs on every planned
// segment. Seal and Compact plan what they produce before they return;
// Bootstrap and Frozen plan the segment they seed in the background, as a
// background seal runs, and return at once. Each segment hands out its
// searchers from a free list that keeps every set released and dies with it.
//
// Frozen wraps an immutable index as a read-only shard of one segment: the
// server answers every search through a Shard, and an immutable shard is
// this one-segment case. It keeps no id set and accepts no mutation.
//
// Liveness belongs to the segment, as deletions do to an immutable segment of
// a full-text engine: each mutable segment holds the set of its ids that no
// later write has masked (live) and the ids masked in it, in order (dead).
// A write masks an id in the one segment whose live set holds it — the stack
// is a handful of segments, so that is a few map probes — and a search
// filters a segment's answers through its own live set only once something
// in it is dead. Because an insert masks any frozen occurrence of its id, at
// most one live version of an id exists across the memtable and all
// segments, so searches fan out and concatenate without a dedup pass.
//
// A compaction folds segments into one: one core.BuildFrozen over the live
// tuples in their leaf slabs, swapped in. The compaction a background seal
// starts past CompactAt segments folds only the segments above the base —
// the bottom segment, the bootstrapped snapshot or the last full fold — and
// rewrites the base as well only once a quarter of its rows are masked
// (baseMaskedDiv) or the segments above it hold half as many rows as it does
// (baseUpperDiv). An explicit Compact, or Seal(true), folds the whole stack
// into one segment. The fold reads its inputs' live tuples, and how many ids
// each has dead, under the read lock, and builds the output and its live set
// off it; at the swap the ids masked in an input since then move from the
// output's live set to its dead list. The inputs' sets die with them.
//
// Searches take a read lock (the memtable and the live sets are mutable). The
// folds and the planning — the expensive work — run off-lock on immutable
// structure. What readers still wait out is the seal, which builds a
// memtable-sized index inside the write lock (lsm.seal_ns,
// BenchmarkShardSeal), and the pointer swaps; an insert holds the lock for a
// row append (lsm.insert_ns). Seals and compactions share structMu, so while
// a compaction runs the armed seal waits and the memtable grows past
// MemtableMax; nothing breaks, reads pay a linear ~1 ns a row for it until
// the seal gets through. The shard owns its metric registry (Shard.Obs),
// which a server over it counts its requests on too.
package lsm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mih"
	"haindex/internal/obs"
	"haindex/internal/planner"
)

// Options configures a mutable shard.
type Options struct {
	// MemtableMax is the number of live memtable entries that triggers a
	// background seal. 0 selects 4096; negative disables automatic sealing
	// (Seal must be called explicitly).
	MemtableMax int
	// CompactAt is the segment count that triggers compaction after a seal:
	// a fold of the segments above the base, or of the whole stack when the
	// base is due (see the package comment). 0 selects 4; negative disables
	// automatic compaction.
	CompactAt int
}

func (o Options) withDefaults() Options {
	if o.MemtableMax == 0 {
		o.MemtableMax = 4096
	}
	if o.CompactAt == 0 {
		o.CompactAt = 4
	}
	return o
}

// The background compaction rewrites the base only when it is worth it:
// once at least 1/baseMaskedDiv of its rows are masked, or the segments
// above it hold at least 1/baseUpperDiv as many rows as it does. Otherwise
// it folds the segments above the base alone.
const (
	baseMaskedDiv = 4
	baseUpperDiv  = 2
)

// searchers is one search's engines over a segment, indexed by strategy;
// each is created on first use.
type searchers [planner.UseScan + 1]*core.Searcher

// segment is one immutable layer of the shard: the frozen serving index,
// which of its ids are live, its counted plan once attached, and the free
// list its searchers come from.
type segment struct {
	idx *core.FrozenIndex
	// live holds the ids of idx no later write has masked, dead those masked
	// in it, in the order they were; both change under the shard's write
	// lock. A Frozen segment has neither and is live whole.
	live map[int]struct{}
	dead []int
	plan atomic.Pointer[planner.Planner] // nil until planned: HA answers
	aux  int                             // the plan's MIH key tables, in heap bytes
	// free holds every set a search has released, so it grows to the most
	// searches the segment has had in flight at once, whatever the caller's
	// concurrency, and dies with the segment. A sync.Pool stays registered
	// with the runtime until a GC clears it, and so would keep a retired
	// segment's arena and MIH tables alive for two GC cycles.
	freeMu sync.Mutex
	free   []*searchers
}

// idSet returns the set of ids.
func idSet(ids []int) map[int]struct{} {
	set := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return set
}

// tuples invokes fn for every live (id, code) occurrence in the segment's
// leaf slab; callers hold the shard's mu.
func (g *segment) tuples(fn func(id int, code bitvec.Code)) {
	if len(g.dead) == 0 {
		g.idx.Tuples(fn)
		return
	}
	g.idx.Tuples(func(id int, c bitvec.Code) {
		if _, ok := g.live[id]; ok {
			fn(id, c)
		}
	})
}

// strategy returns the engine that searches seg at h under pin: the pinned
// one, or under planner.UsePlan the one seg's plan picks; HA while seg is
// unplanned.
func (g *segment) strategy(h int, pin planner.Strategy) planner.Strategy {
	pl := g.plan.Load()
	switch {
	case pl == nil:
		return planner.UseHA
	case pin == planner.UsePlan:
		return pl.Plan(h).Strategy
	}
	return pin
}

// searcher takes a searchers set off the free list (or makes one) and
// returns it with its searcher for st, created on first use.
func (g *segment) searcher(st planner.Strategy) (*searchers, *core.Searcher) {
	var set *searchers
	g.freeMu.Lock()
	if n := len(g.free); n > 0 {
		set = g.free[n-1]
		g.free = g.free[:n-1]
	}
	g.freeMu.Unlock()
	if set == nil {
		set = new(searchers)
	}
	if set[st] == nil {
		var e core.Engine = g.idx
		if st != planner.UseHA {
			e = g.plan.Load().Index(st)
		}
		set[st] = core.NewSearcher(e)
	}
	return set, set[st]
}

// release returns a set to the free list.
func (g *segment) release(set *searchers) {
	g.freeMu.Lock()
	g.free = append(g.free, set)
	g.freeMu.Unlock()
}

// planSegment counts seg's plan over MIH built on its leaf arena and
// reports the nanoseconds each took; on an error the segment stays with HA.
func planSegment(seg *segment) (mihNs, planNs int64) {
	view := seg.idx.Groups()
	t0 := time.Now()
	m, err := mih.FromGroups(view, mih.Options{})
	if err != nil {
		return 0, 0
	}
	t1 := time.Now()
	pl, err := planner.New(planner.Engines{HA: seg.idx, MIH: m}, planner.Options{Seed: 1})
	if err != nil {
		return 0, 0
	}
	seg.aux = m.HeapBytes()
	seg.plan.Store(pl)
	return t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds()
}

// state is the immutable segment stack, swapped atomically under the write
// lock and readable without it. segments[0] is the base.
type state struct {
	segments []*segment
	epoch    uint64
}

// Stats is a point-in-time summary of the shard's layering.
type Stats struct {
	Len          int    // live tuples (memtable + unmasked frozen)
	MemtableSize int    // live memtable entries
	Segments     int    // immutable segments
	Tombstones   int    // segment rows masked by a later write
	Epoch        uint64 // bumped on every segment-stack swap (bootstrap, seal, compaction), never by a write
	Seals        int64
	Compactions  int64
}

// Shard is a mutable, searchable HA-Index shard. All methods are safe for
// concurrent use; Close must be the last call.
type Shard struct {
	opts   Options
	length int

	mu       sync.RWMutex
	mem      core.GroupView        // one row per live memtable entry; IDStart is the identity
	memIDs   map[int]int32         // live memtable id -> its row
	state    atomic.Pointer[state] // immutable segment stack
	booted   bool
	readOnly bool // Frozen's: no id set, no mutation

	// structMu serializes structural work (seal, compact, planning) so at
	// most one freeze/rebuild is in flight.
	structMu  sync.Mutex
	sealArmed atomic.Bool
	wg        sync.WaitGroup
	closed    atomic.Bool

	reg                                *obs.Registry
	gMem, gSegs, gTomb, gUnplanned     *obs.Gauge
	gMapped, gHeap, gAux               *obs.Gauge
	cInserts, cDeletes, cSeals, cComps *obs.Counter
	cSearch                            [planner.UseScan + 1]*obs.Counter
	hSearch                            [planner.UseScan + 1]*obs.Histogram
	hSeal, hCompact                    *obs.Histogram
}

// New creates an empty mutable shard for codes of the given bit length.
func New(length int, opts Options) *Shard {
	if length <= 0 {
		panic("lsm: non-positive code length")
	}
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	s := &Shard{
		opts:   opts,
		length: length,
		mem:    core.GroupView{Length: length, IDStart: []int32{0}},
		memIDs: make(map[int]int32),
		reg:    reg,
	}
	s.state.Store(&state{})
	s.gMem = reg.Gauge("lsm.memtable_size")
	s.gSegs = reg.Gauge("lsm.segments")
	s.gTomb = reg.Gauge("lsm.tombstones")
	s.gUnplanned = reg.Gauge("lsm.unplanned_segments")
	s.gMapped = reg.Gauge("index.mapped_bytes")
	s.gHeap = reg.Gauge("index.heap_bytes")
	s.gAux = reg.Gauge("index.aux_heap_bytes")
	s.cInserts = reg.Counter("lsm.inserts")
	s.cDeletes = reg.Counter("lsm.deletes")
	s.cSeals = reg.Counter("lsm.seals")
	s.cComps = reg.Counter("lsm.compactions")
	for st := range s.cSearch {
		name := "lsm.search_" + planner.Strategy(st).String()
		s.cSearch[st] = reg.Counter(name)
		s.hSearch[st] = reg.Histogram(name + "_ns")
	}
	s.hSeal = reg.Histogram("lsm.seal_ns")
	s.hCompact = reg.Histogram("lsm.compact_ns")
	return s
}

// Obs returns the shard's registry, made by New: lsm.memtable_size /
// lsm.segments / lsm.tombstones (segment rows masked by a later write) /
// lsm.unplanned_segments gauges, lsm.seal_ns / lsm.compact_ns histograms,
// lsm.inserts / lsm.deletes / lsm.seals / lsm.compactions counters (Stats
// reads the last two), lsm.search_ha / _mih / _scan counting segment searches
// by engine and lsm.search_*_ns timing them, index.mapped_bytes /
// index.heap_bytes / index.aux_heap_bytes (the MIH key tables) gauges, and
// load.mih_build_ns / load.plan_ns timing the seeded segment's plan. A server
// over the shard adds its own instruments, under names of its own.
func (s *Shard) Obs() *obs.Registry { return s.reg }

// Frozen returns a read-only shard that serves idx as its one segment,
// planned in the background (see seed). It walks no ids — a snapshot's are
// unique — and so takes no mutation: Insert, Delete, Seal and Compact panic,
// and Bootstrap refuses. It takes no Options: both of them drive the seals
// and compactions it refuses.
func Frozen(idx *core.FrozenIndex) *Shard {
	s := New(idx.Length(), Options{})
	s.booted, s.readOnly = true, true
	s.seed(&segment{idx: idx})
	return s
}

// seed makes seg the stack's one segment and plans it in the background
// under structMu, timed on load.mih_build_ns and load.plan_ns; HA serves it,
// exactly, until then, and Close waits for it. Callers own the empty stack.
func (s *Shard) seed(seg *segment) {
	s.state.Store(&state{segments: []*segment{seg}, epoch: s.state.Load().epoch + 1})
	s.publishGauges()
	s.publishSegments()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.structMu.Lock()
		defer s.structMu.Unlock()
		// A seal that got here first has planned it; a fold may have retired it.
		if seg.plan.Load() != nil || !slices.Contains(s.state.Load().segments, seg) {
			return
		}
		mihNs, planNs := planSegment(seg)
		s.reg.Gauge("load.mih_build_ns").Set(mihNs)
		s.reg.Gauge("load.plan_ns").Set(planNs)
		s.publishSegments()
	}()
}

// ReadOnly reports whether the shard refuses mutation: a Frozen one does.
func (s *Shard) ReadOnly() bool { return s.readOnly }

// writable panics on a read-only shard; every mutation calls it first.
func (s *Shard) writable() {
	if s.readOnly {
		panic("lsm: mutating a read-only shard")
	}
}

// Bootstrap seeds the shard with an existing frozen index as its first
// segment — how a server turns a loaded snapshot into a mutable shard. Ids
// in the index must be unique (a duplicate is an error: Len would
// under-report and one Delete would mask two tuples). It must be called
// before any mutation. The segment is planned in the background (see seed).
func (s *Shard) Bootstrap(idx *core.FrozenIndex) error {
	if idx.Length() != s.length {
		return fmt.Errorf("lsm: bootstrap index is %d-bit, shard serves %d-bit codes", idx.Length(), s.length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.booted {
		return fmt.Errorf("lsm: Bootstrap must be the first operation")
	}
	s.booted = true
	if idx.Len() == 0 {
		return nil
	}
	live := make(map[int]struct{}, idx.Len())
	idx.Tuples(func(id int, _ bitvec.Code) {
		live[id] = struct{}{}
	})
	if len(live) != idx.Len() {
		return fmt.Errorf("lsm: bootstrap index holds %d tuples under %d distinct ids", idx.Len(), len(live))
	}
	s.seed(&segment{idx: idx, live: live})
	return nil
}

// Length returns the code length L in bits.
func (s *Shard) Length() int { return s.length }

// Len returns the number of live tuples.
func (s *Shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveLen()
}

// liveLen counts the live tuples; callers hold mu.
func (s *Shard) liveLen() int {
	n := len(s.mem.IDs) - s.masked()
	for _, seg := range s.state.Load().segments {
		n += seg.idx.Len()
	}
	return n
}

// masked counts the segment rows a later write masked; callers hold mu.
func (s *Shard) masked() int {
	n := 0
	for _, seg := range s.state.Load().segments {
		n += len(seg.dead)
	}
	return n
}

// Stats returns a point-in-time layering summary.
func (s *Shard) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.state.Load()
	return Stats{
		Len:          s.liveLen(),
		MemtableSize: len(s.mem.IDs),
		Segments:     len(st.segments),
		Tombstones:   s.masked(),
		Epoch:        st.epoch,
		Seals:        s.cSeals.Value(),
		Compactions:  s.cComps.Value(),
	}
}

// publishGauges mirrors the layering into the registry; callers hold mu.
func (s *Shard) publishGauges() {
	s.gMem.Set(int64(len(s.mem.IDs)))
	s.gSegs.Set(int64(len(s.state.Load().segments)))
	s.gTomb.Set(int64(s.masked()))
}

// mask masks id in the segment where it is live, if one is, and reports
// whether it was; callers hold mu.
func (s *Shard) mask(id int) bool {
	for _, seg := range s.state.Load().segments {
		if _, ok := seg.live[id]; ok {
			delete(seg.live, id)
			seg.dead = append(seg.dead, id)
			return true
		}
	}
	return false
}

// Insert upserts the tuple: any older version of the id — in the memtable or
// in a frozen segment — is superseded. It reports whether an older version
// was replaced.
func (s *Shard) Insert(id int, c bitvec.Code) bool {
	if c.Len() != s.length {
		panic(fmt.Sprintf("lsm: inserting %d-bit code into %d-bit shard", c.Len(), s.length))
	}
	s.writable()
	s.mu.Lock()
	s.booted = true
	replaced := false
	if row, ok := s.memIDs[id]; ok {
		if s.mem.Code(int(row)).Equal(c) {
			s.mu.Unlock()
			return true
		}
		// In place: the row is the id's only version.
		nw := s.mem.Words()
		copy(s.mem.Codes[int(row)*nw:(int(row)+1)*nw], c.Words())
		replaced = true
	} else {
		// A frozen copy is now stale: mask it in its segment.
		replaced = s.mask(id)
		rows := len(s.mem.IDs)
		s.memIDs[id] = int32(rows)
		s.mem.Codes = append(s.mem.Codes, c.Words()...)
		s.mem.IDs = append(s.mem.IDs, id)
		s.mem.IDStart = append(s.mem.IDStart, int32(rows+1))
	}
	s.cInserts.Inc()
	sealNow := s.opts.MemtableMax > 0 && len(s.mem.IDs) >= s.opts.MemtableMax
	s.publishGauges()
	s.mu.Unlock()
	if sealNow && !s.closed.Load() && s.sealArmed.CompareAndSwap(false, true) {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.sealArmed.Store(false)
			s.sealAndFold()
		}()
	}
	return replaced
}

// sealAndFold is the background step past MemtableMax: a seal, then, past
// CompactAt segments, the background policy's compaction.
func (s *Shard) sealAndFold() {
	s.Seal(false)
	if s.opts.CompactAt > 0 && len(s.state.Load().segments) > s.opts.CompactAt {
		s.compact(false)
	}
}

// Delete removes the tuple with the given id, wherever its live version
// sits: a memtable id gives up its row, a frozen id is masked in its
// segment. It reports whether the id was live.
func (s *Shard) Delete(id int) bool {
	s.writable()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.booted = true
	if row, ok := s.memIDs[id]; ok {
		s.dropRow(id, int(row))
	} else if !s.mask(id) {
		return false
	}
	s.cDeletes.Inc()
	s.publishGauges()
	return true
}

// dropRow removes a memtable row by moving the last row into the hole, so the
// slab stays dense and no other row's index changes; callers hold mu.
func (s *Shard) dropRow(id, row int) {
	nw, last := s.mem.Words(), len(s.mem.IDs)-1
	if row != last {
		copy(s.mem.Codes[row*nw:(row+1)*nw], s.mem.Codes[last*nw:])
		moved := s.mem.IDs[last]
		s.mem.IDs[row] = moved
		s.memIDs[moved] = int32(row)
	}
	s.mem.Codes = s.mem.Codes[:last*nw]
	s.mem.IDs = s.mem.IDs[:last]
	s.mem.IDStart = s.mem.IDStart[:last+1]
	delete(s.memIDs, id)
}

// SearchInto appends to out the ids of all live tuples within Hamming
// distance h of q — one linear scan of the memtable's rows, then every
// segment through the engine pin names (HA on a segment whose plan is still
// being counted), or under
// planner.UsePlan the one its plan picks at h, keeping each segment's live
// ids — and returns the extended slice; stats aggregates the work of the
// whole fan-out.
func (s *Shard) SearchInto(q bitvec.Code, h int, pin planner.Strategy, out []int, stats *core.SearchStats) []int {
	if q.Len() != s.length {
		panic(fmt.Sprintf("lsm: %d-bit query against %d-bit shard", q.Len(), s.length))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.search(q, h, pin, out, stats)
}

// search is SearchInto's fan-out; callers hold mu for reading.
func (s *Shard) search(q bitvec.Code, h int, pin planner.Strategy, out []int, stats *core.SearchStats) []int {
	// The memtable is a scan engine whose groups are its rows; a small
	// answer stays in the stack buffer.
	var rows [64]int32
	for _, row := range s.mem.Search(q, h, stats, rows[:0]) {
		out = append(out, s.mem.IDs[row])
	}
	for _, seg := range s.state.Load().segments {
		out = s.searchSegment(seg, seg.strategy(h, pin), q, h, out, stats)
	}
	return out
}

// searchSegment appends the live ids in seg within distance h of q, found by
// strategy st, and counts and times the search on st's instruments; callers
// hold mu for reading. The ids go straight onto out, which is filtered in
// place through seg's live set only once some id of seg is dead.
func (s *Shard) searchSegment(seg *segment, st planner.Strategy, q bitvec.Code, h int, out []int, stats *core.SearchStats) []int {
	t0 := time.Now()
	set, sr := seg.searcher(st)
	start := len(out)
	out = sr.SearchAppend(out, q, h)
	stats.Add(sr.Stats)
	seg.release(set)
	if len(seg.dead) > 0 {
		kept := out[:start]
		for _, id := range out[start:] {
			if _, ok := seg.live[id]; ok {
				kept = append(kept, id)
			}
		}
		out = kept
	}
	s.cSearch[st].Inc()
	s.hSearch[st].RecordSince(t0)
	return out
}

// Search is SearchInto under planner.UsePlan with a fresh result slice and
// throwaway statistics.
func (s *Shard) Search(q bitvec.Code, h int) []int {
	var stats core.SearchStats
	return s.SearchInto(q, h, planner.UsePlan, nil, &stats)
}

// TopKInto returns the k nearest live ids with their distances, ordered by
// (distance, id), by core.TopKByRadius over the layered search under
// planner.UsePlan. The read lock is held across every radius, so the whole
// escalation sees one state of the shard and each distance is that of a
// version of the tuple no mutation replaced midway.
func (s *Shard) TopKInto(q bitvec.Code, k int, stats *core.SearchStats) ([]int, []int) {
	if q.Len() != s.length {
		panic(fmt.Sprintf("lsm: %d-bit query against %d-bit shard", q.Len(), s.length))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var found []int
	return core.TopKByRadius(s.length, k, func(h int) []int {
		found = s.search(q, h, planner.UsePlan, found[:0], stats)
		return found
	})
}

// TopK is TopKInto with throwaway statistics.
func (s *Shard) TopK(q bitvec.Code, k int) ([]int, []int) {
	var stats core.SearchStats
	return s.TopKInto(q, k, &stats)
}

// Tuples invokes fn for every live (id, code) pair: memtable rows plus live
// segment tuples. The codes alias the shard's slabs — a memtable row's is
// overwritten by later mutations — so fn must Clone what it keeps.
func (s *Shard) Tuples(fn func(id int, code bitvec.Code)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.mem.Tuples(fn)
	for _, seg := range s.state.Load().segments {
		seg.tuples(fn)
	}
}

// Seal freezes the current memtable into a new immutable segment in one
// step under the write lock: core.BuildFrozen bulk-loads the slab (H-Build,
// the only one its rows ever see), the segment joins the stack and the epoch
// advances by one. When Seal returns the memtable is empty and every tuple
// it held is searchable in the frozen segment; there is no intermediate
// state for a reader to see. The build sorts the slab where it lies — no
// reader is in, and the rows are dropped next — and copies the words into
// the segment's own arena, so the slab is free to take the next rows. Off
// the lock the new segment, and the base if its background plan has not run
// yet, are then planned before Seal returns. With compact set, a full
// compaction follows.
func (s *Shard) Seal(compact bool) {
	s.writable()
	s.structMu.Lock()
	t0 := time.Now()
	s.mu.Lock()
	if len(s.mem.IDs) > 0 {
		live := idSet(s.mem.IDs)
		sealed := &segment{idx: core.BuildFrozen(s.length, s.mem.Codes, s.mem.IDs, core.Options{}), live: live}
		st := s.state.Load()
		s.mem.Codes, s.mem.IDs, s.mem.IDStart = s.mem.Codes[:0], s.mem.IDs[:0], s.mem.IDStart[:1]
		clear(s.memIDs)
		segs := append(append([]*segment(nil), st.segments...), sealed)
		s.state.Store(&state{segments: segs, epoch: st.epoch + 1})
		s.publishGauges()
		s.cSeals.Inc()
		s.hSeal.RecordSince(t0)
	}
	s.mu.Unlock()
	s.planStack()
	s.structMu.Unlock()
	if compact {
		s.Compact()
	}
}

// planStack plans every segment of the stack that has no plan yet; callers
// hold structMu.
func (s *Shard) planStack() {
	for _, seg := range s.state.Load().segments {
		if seg.plan.Load() == nil {
			planSegment(seg) // on a failure HA serves it
		}
	}
	s.publishSegments()
}

// publishSegments mirrors the stack into lsm.unplanned_segments and the
// index.* byte gauges, where the aux share is the MIH key tables — all the
// heap an mmap'd segment adds; callers hold structMu, or mu before any seal.
func (s *Shard) publishSegments() {
	var unplanned, mapped, heap, aux int
	for _, seg := range s.state.Load().segments {
		if seg.plan.Load() == nil {
			unplanned++
		}
		mapped += seg.idx.MappedBytes()
		heap += seg.idx.HeapBytes()
		aux += seg.aux
	}
	s.gUnplanned.Set(int64(unplanned))
	s.gMapped.Set(int64(mapped))
	s.gHeap.Set(int64(heap + aux))
	s.gAux.Set(int64(aux))
}

// Compact folds the whole segment stack into one segment (see compact).
// Synchronous, like Seal.
func (s *Shard) Compact() { s.compact(true) }

// compact folds segments into one. With full set, or when the base is due
// for a rewrite (baseMaskedDiv, baseUpperDiv), the fold takes the whole
// stack; otherwise it takes the segments above the base and leaves the base
// as it is. The live (id, code) occurrences in the inputs' leaf slabs are
// collected into one row slab and bulk-loaded by a single core.BuildFrozen,
// which sorts them by Gray rank, off-lock while the inputs keep serving; the
// output is swapped in and planned. One hierarchy over all of them: the build
// allocates a few dozen arrays whatever the survivor count
// (TestShardCompactAllocs), so there is no pointer form to bound by building
// in chunks.
func (s *Shard) compact(full bool) {
	s.writable()
	s.structMu.Lock()
	defer s.structMu.Unlock()
	t0 := time.Now()
	stack := s.state.Load().segments
	if len(stack) == 0 {
		return
	}
	// Snapshot the inputs' live tuples, and how many ids each has dead: an
	// id masked in an input after this was live in it here, so it is a row
	// of the output, masked there at the swap.
	s.mu.RLock()
	full = full || len(stack) == 1 || baseDue(stack)
	inputs := stack
	if !full {
		inputs = stack[1:]
	}
	total := 0
	for _, seg := range inputs {
		total += seg.idx.Len()
	}
	rows := make([]uint64, 0, total*((s.length+63)/64))
	ids := make([]int, 0, total)
	marks := make([]int, len(inputs))
	for i, seg := range inputs {
		marks[i] = len(seg.dead)
		seg.tuples(func(id int, c bitvec.Code) {
			ids = append(ids, id)
			rows = append(rows, c.Words()...)
		})
	}
	s.mu.RUnlock()
	if len(inputs) == 1 && len(ids) == inputs[0].idx.Len() {
		return // nothing to merge, nothing to fold away
	}
	var out *segment
	if len(ids) > 0 {
		live := idSet(ids) // before the build sorts ids
		out = &segment{idx: core.BuildFrozen(s.length, rows, ids, core.Options{}), live: live}
	}

	s.mu.Lock()
	// structMu, held since before stack was read, keeps every Seal out, so
	// the stack is still exactly stack and the output replaces inputs.
	kept := len(stack) - len(inputs)
	segs := stack[:kept:kept]
	if out != nil {
		segs = append(segs, out)
	}
	for i, seg := range inputs {
		for _, id := range seg.dead[marks[i]:] {
			delete(out.live, id)
			out.dead = append(out.dead, id)
		}
	}
	s.state.Store(&state{segments: segs, epoch: s.state.Load().epoch + 1})
	s.publishGauges()
	s.mu.Unlock()
	s.planStack()
	s.cComps.Inc()
	s.hCompact.RecordSince(t0)
}

// baseDue reports whether the background policy should rewrite the base
// segment: enough of its rows are masked, or the segments above it are
// large enough against it. Callers hold the shard's mu.
func baseDue(stack []*segment) bool {
	base := stack[0].idx.Len()
	upper := 0
	for _, seg := range stack[1:] {
		upper += seg.idx.Len()
	}
	return len(stack[0].dead)*baseMaskedDiv >= base || upper*baseUpperDiv >= base
}

// Close waits for in-flight background plans, seals and compactions. The
// shard must not be mutated concurrently with or after Close.
func (s *Shard) Close() {
	s.closed.Store(true)
	s.wg.Wait()
}
