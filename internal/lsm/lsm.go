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
// id already has; if the id is live in a frozen segment, a tombstone masks
// the old version. A Delete of a memtable id moves the last row into the
// hole; a delete of a frozen id becomes a tombstone. When the memtable passes
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
// this one-segment case. It keeps no id sets and accepts no mutation.
//
// A compaction folds segments into one: one core.BuildFrozen over the
// tuples in their leaf slabs that no tombstone masks, swapped in. The
// compaction a background seal starts past CompactAt segments folds only the
// segments above the base — the bottom segment, the bootstrapped snapshot
// or the last full fold — and rewrites the base as well only once a quarter
// of its rows are masked (baseMaskedDiv) or the segments above it hold half
// as many rows as it does (baseUpperDiv). An explicit Compact, or Seal(true),
// folds the whole stack into one segment. Either fold drops exactly the
// tombstones no remaining segment needs.
//
// Versioning uses a single mutation sequence: every segment records the
// sequence at seal time (maxSeq), every tombstone the sequence of the
// mutation that created it, and a tombstone masks an id only in segments
// sealed before it (tomb > maxSeq). Because an insert always tombstones any
// frozen occurrence of its id, at most one live version of an id exists
// across the memtable and all segments, so searches fan out and concatenate
// without a dedup pass.
//
// Searches take a read lock (memtable and tombstones are mutable). The
// folds and the planning — the expensive work — run off-lock on immutable
// structure. What readers still wait out is the seal, which builds a
// memtable-sized index inside the write lock (lsm.seal_ns,
// BenchmarkShardSeal), and the pointer swaps; an insert holds the lock for a
// row append (lsm.insert_ns). Seals and compactions share structMu, so while
// a compaction runs the armed seal waits and the memtable grows past
// MemtableMax; nothing breaks, reads pay a linear ~1 ns a row for it until
// the seal gets through.
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

	// Obs, when set, is the registry the shard hangs its instruments on:
	// lsm.memtable_size / lsm.segments / lsm.tombstones /
	// lsm.unplanned_segments gauges, lsm.seal_ns / lsm.compact_ns wall
	// histograms, and lsm.inserts / lsm.deletes / lsm.seals /
	// lsm.compactions counters, with lsm.search_ha / lsm.search_mih /
	// lsm.search_scan counting segment searches by the engine that ran them
	// and lsm.search_ha_ns / _mih_ns / _scan_ns timing them. The
	// index.mapped_bytes / index.heap_bytes gauges hold the segments' bytes,
	// index.aux_heap_bytes the heap share of their MIH key tables, and
	// load.mih_build_ns / load.plan_ns time the seeded segment's plan. One
	// registry serves one shard — Stats reads lsm.seals and lsm.compactions
	// from it — though a server may share it, its names being its own.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MemtableMax == 0 {
		o.MemtableMax = 4096
	}
	if o.CompactAt == 0 {
		o.CompactAt = 4
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
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
// the seal-time sequence that orders it against tombstones, its counted
// plan once attached, and the free list its searchers come from.
type segment struct {
	idx    *core.FrozenIndex
	maxSeq uint64
	plan   atomic.Pointer[planner.Planner] // nil until planned: HA answers
	aux    int                             // the plan's MIH key tables, in heap bytes
	// free holds every set a search has released, so it grows to the most
	// searches the segment has had in flight at once, whatever the caller's
	// concurrency, and dies with the segment. A sync.Pool stays registered
	// with the runtime until a GC clears it, and so would keep a retired
	// segment's arena and MIH tables alive for two GC cycles.
	freeMu sync.Mutex
	free   []*searchers
}

func newSegment(idx *core.FrozenIndex, maxSeq uint64) *segment {
	return &segment{idx: idx, maxSeq: maxSeq}
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
		var idx core.Index = g.idx
		if st != planner.UseHA {
			idx = g.plan.Load().Index(st)
		}
		set[st] = core.NewSearcher(idx)
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
	pl, err := planner.New(planner.Engines{HA: seg.idx, MIH: core.AsIndex(m), Groups: view}, planner.Options{Seed: 1})
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

// tombstone masks its id in every segment sealed before seq. base records
// that the id has a row in the base segment, which a partial fold keeps.
type tombstone struct {
	seq  uint64
	base bool
}

// Stats is a point-in-time summary of the shard's layering.
type Stats struct {
	Len          int    // live tuples (memtable + unmasked frozen)
	MemtableSize int    // live memtable entries
	Segments     int    // immutable segments
	Tombstones   int    // ids masked in some segment
	Epoch        uint64 // bumped on every seal/compaction swap
	Seals        int64
	Compactions  int64
}

// Shard is a mutable, searchable HA-Index shard. All methods are safe for
// concurrent use; Close must be the last call.
type Shard struct {
	opts   Options
	length int

	mu     sync.RWMutex
	mem    core.GroupView // one row per live memtable entry; IDStart is the identity
	memIDs map[int]int32  // live memtable id -> its row
	// baseLive and upperLive hold the ids live (not masked) in the base
	// segment and in the segments above it.
	baseLive, upperLive map[int]struct{}
	tomb                map[int]tombstone     // id -> the mutation masking it
	seq                 uint64                // mutation sequence, monotone under mu
	state               atomic.Pointer[state] // immutable segment stack
	booted              bool
	readOnly            bool // Frozen's: no id sets, no mutation

	// structMu serializes structural work (seal, compact, planning) so at
	// most one freeze/rebuild is in flight.
	structMu  sync.Mutex
	sealArmed atomic.Bool
	wg        sync.WaitGroup
	closed    atomic.Bool

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
	s := &Shard{
		opts:      opts,
		length:    length,
		mem:       core.GroupView{Length: length, IDStart: []int32{0}},
		memIDs:    make(map[int]int32),
		baseLive:  make(map[int]struct{}),
		upperLive: make(map[int]struct{}),
		tomb:      make(map[int]tombstone),
	}
	s.state.Store(&state{})
	reg := opts.Obs
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

// Frozen returns a read-only shard that serves idx as its one segment,
// planned in the background (see seed). It walks no ids — a snapshot's are
// unique — and so takes no mutation: Insert, Delete, Seal and Compact panic,
// and Bootstrap refuses.
func Frozen(idx *core.FrozenIndex, opts Options) *Shard {
	s := New(idx.Length(), opts)
	s.booted, s.readOnly = true, true
	s.seed(idx)
	return s
}

// seed makes idx the stack's one segment and plans it in the background
// under structMu, timed on load.mih_build_ns and load.plan_ns; HA serves it,
// exactly, until then, and Close waits for it. Callers own the empty stack.
func (s *Shard) seed(idx *core.FrozenIndex) {
	seg := newSegment(idx, s.seq)
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
		s.opts.Obs.Gauge("load.mih_build_ns").Set(mihNs)
		s.opts.Obs.Gauge("load.plan_ns").Set(planNs)
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
	if s.booted || s.seq != 0 {
		return fmt.Errorf("lsm: Bootstrap must be the first operation")
	}
	s.booted = true
	if idx.Len() == 0 {
		return nil
	}
	idx.Tuples(func(id int, _ bitvec.Code) {
		s.baseLive[id] = struct{}{}
	})
	if distinct := len(s.baseLive); distinct != idx.Len() {
		s.baseLive = make(map[int]struct{})
		return fmt.Errorf("lsm: bootstrap index holds %d tuples under %d distinct ids", idx.Len(), distinct)
	}
	s.seq++
	s.seed(idx)
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

// liveLen counts the live tuples; callers hold mu. A read-only shard's one
// segment is live whole.
func (s *Shard) liveLen() int {
	if s.readOnly {
		return s.state.Load().segments[0].idx.Len()
	}
	return len(s.mem.IDs) + len(s.baseLive) + len(s.upperLive)
}

// Epoch returns the current structural epoch: it bumps on every segment-stack
// swap (bootstrap, seal, compaction) and never on an insert or delete, so it
// names the layering a search walks, not the answers it returns.
func (s *Shard) Epoch() uint64 { return s.state.Load().epoch }

// Stats returns a point-in-time layering summary.
func (s *Shard) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.state.Load()
	return Stats{
		Len:          s.liveLen(),
		MemtableSize: len(s.mem.IDs),
		Segments:     len(st.segments),
		Tombstones:   len(s.tomb),
		Epoch:        st.epoch,
		Seals:        s.cSeals.Value(),
		Compactions:  s.cComps.Value(),
	}
}

// publishGauges mirrors the layering into the registry; callers hold mu.
func (s *Shard) publishGauges() {
	s.gMem.Set(int64(len(s.mem.IDs)))
	s.gSegs.Set(int64(len(s.state.Load().segments)))
	s.gTomb.Set(int64(len(s.tomb)))
}

// mask tombstones a frozen id if one is live, and reports whether it was;
// callers hold mu.
func (s *Shard) mask(id int) bool {
	_, inBase := s.baseLive[id]
	if inBase {
		delete(s.baseLive, id)
	} else if _, ok := s.upperLive[id]; ok {
		delete(s.upperLive, id)
	} else {
		return false
	}
	s.seq++
	// An older tombstone of the id may be the one masking its base row.
	s.tomb[id] = tombstone{seq: s.seq, base: inBase || s.tomb[id].base}
	return true
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
		// A frozen copy is now stale: mask it in every current segment.
		replaced = s.mask(id)
		rows := len(s.mem.IDs)
		s.memIDs[id] = int32(rows)
		s.mem.Codes = append(s.mem.Codes, c.Words()...)
		s.mem.IDs = append(s.mem.IDs, id)
		s.mem.IDStart = append(s.mem.IDStart, int32(rows+1))
	}
	s.seq++
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
// sits: a memtable id gives up its row, a frozen id becomes a tombstone. It
// reports whether the id was live.
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
// planner.UsePlan the one its plan picks at h, with tombstone masking — and
// returns the extended slice; stats aggregates the work of the whole fan-out.
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

// searchSegment appends the ids in seg within distance h of q that no
// tombstone masks, found by strategy st, and counts and times the search on
// st's instruments; callers hold mu for reading. The ids go straight onto
// out, which is filtered in place only while some tombstone exists.
func (s *Shard) searchSegment(seg *segment, st planner.Strategy, q bitvec.Code, h int, out []int, stats *core.SearchStats) []int {
	t0 := time.Now()
	set, sr := seg.searcher(st)
	start := len(out)
	out = sr.SearchAppend(out, q, h)
	stats.Add(sr.Stats)
	seg.release(set)
	if len(s.tomb) > 0 {
		kept := out[:start]
		for _, id := range out[start:] {
			if t, masked := s.tomb[id]; !masked || t.seq <= seg.maxSeq {
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

// Tuples invokes fn for every live (id, code) pair: memtable rows plus
// unmasked segment tuples. The codes alias the shard's slabs — a memtable
// row's is overwritten by later mutations — so fn must Clone what it keeps.
func (s *Shard) Tuples(fn func(id int, code bitvec.Code)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.mem.Tuples(fn)
	s.segmentTuples(s.state.Load().segments, fn)
}

// segmentTuples invokes fn for every (id, code) occurrence in the segments'
// leaf slabs that no tombstone masks; callers hold mu.
func (s *Shard) segmentTuples(segs []*segment, fn func(id int, code bitvec.Code)) {
	for _, seg := range segs {
		seg.idx.Tuples(func(id int, c bitvec.Code) {
			if t, masked := s.tomb[id]; masked && t.seq > seg.maxSeq {
				return
			}
			fn(id, c)
		})
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
		sealed := newSegment(core.BuildFrozen(s.length, s.mem.Codes, s.mem.IDs, core.Options{}), s.seq)
		st := s.state.Load()
		// The first segment of an empty stack is the base.
		live := s.upperLive
		if len(st.segments) == 0 {
			live = s.baseLive
		}
		for _, id := range s.mem.IDs {
			live[id] = struct{}{}
		}
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
// as it is. The (id, code) occurrences in the inputs' leaf slabs that no
// tombstone masks are collected into one row slab and bulk-loaded by a
// single core.BuildFrozen, which sorts them by Gray rank, off-lock while the
// inputs keep serving; the output is swapped in and planned. One hierarchy
// over all of them: the build allocates a few dozen arrays whatever the
// survivor count (TestShardCompactAllocs), so there is no pointer form to
// bound by building in chunks. Tombstones that no longer mask a row in a
// remaining segment are garbage-collected.
func (s *Shard) compact(full bool) {
	s.writable()
	s.structMu.Lock()
	defer s.structMu.Unlock()
	t0 := time.Now()
	stack := s.state.Load().segments
	if len(stack) == 0 {
		return
	}
	// Snapshot the masking decisions: which (segment, id) occurrences
	// survive, and the sequence horizon the output represents. A tombstone
	// created mid-compaction has a sequence above this snapshot — and so
	// above the output's maxSeq — so the tuple it masks simply stays masked
	// by the live check after the swap.
	s.mu.RLock()
	full = full || len(stack) == 1 || s.baseDue(stack)
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
	snapSeq := s.seq
	s.segmentTuples(inputs, func(id int, c bitvec.Code) {
		ids = append(ids, id)
		rows = append(rows, c.Words()...)
	})
	s.mu.RUnlock()
	if len(inputs) == 1 && len(ids) == inputs[0].idx.Len() {
		return // nothing to merge, nothing to fold away
	}
	var out *segment
	if len(ids) > 0 {
		out = newSegment(core.BuildFrozen(s.length, rows, ids, core.Options{}), snapSeq)
	}

	s.mu.Lock()
	// structMu, held since before stack was read, keeps every Seal out, so
	// the stack is still exactly stack and the output replaces inputs.
	kept := len(stack) - len(inputs)
	segs := stack[:kept:kept]
	if out != nil {
		segs = append(segs, out)
	}
	s.state.Store(&state{segments: segs, epoch: s.state.Load().epoch + 1})
	if full {
		// The output is the new base. Every tombstone that survives below
		// masks a row of it: its id was live in an input when it was made.
		if len(s.upperLive) > len(s.baseLive) {
			s.baseLive, s.upperLive = s.upperLive, s.baseLive
		}
		for id := range s.upperLive {
			s.baseLive[id] = struct{}{}
		}
		clear(s.upperLive)
	}
	// GC tombstones that mask nothing anymore. A tombstone at or below
	// snapSeq was applied by the fold, so it is needed only while the base
	// it may mask remains; one above snapSeq masks a row of the output.
	for id, t := range s.tomb {
		switch {
		case t.seq > snapSeq:
			if full && !t.base {
				s.tomb[id] = tombstone{seq: t.seq, base: true}
			}
		case full || !t.base:
			delete(s.tomb, id)
		}
	}
	s.publishGauges()
	s.mu.Unlock()
	s.planStack()
	s.cComps.Inc()
	s.hCompact.RecordSince(t0)
}

// baseDue reports whether the background policy should rewrite the base
// segment: enough of its rows are masked, or the segments above it are
// large enough against it. Callers hold mu.
func (s *Shard) baseDue(stack []*segment) bool {
	base := stack[0].idx.Len()
	upper := 0
	for _, seg := range stack[1:] {
		upper += seg.idx.Len()
	}
	masked := base - len(s.baseLive)
	return masked*baseMaskedDiv >= base || upper*baseUpperDiv >= base
}

// Close waits for in-flight background plans, seals and compactions. The
// shard must not be mutated concurrently with or after Close.
func (s *Shard) Close() {
	s.closed.Store(true)
	s.wg.Wait()
}
