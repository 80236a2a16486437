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
// epoch-bumped state update, and the slab starts over empty — a sealed
// segment is its leaf slab plus the compiled hierarchy, nothing else. A
// compactor rebuilds the whole stack into one segment, one BuildFrozen over
// the tuples in the leaf slabs that no tombstone masks, and swaps it in,
// garbage-collecting tombstones no remaining segment needs. No pointer index
// is ever built here: the paper's H-Insert and H-Delete (Algorithms 2-3) stay
// with it in core, for the library API; this tier does not use them.
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
// compaction rebuild — the expensive work — runs off-lock on immutable
// structure. What readers still wait out is the seal, which builds a
// memtable-sized index inside the write lock — 1 to 1.6 ms at the default 4096
// rows on the benchmark's traced churn runs (lsm.seal_s) — and the pointer
// swaps; an insert holds the lock for a row append (0.2 to 0.3
// µs, lsm.insert_ns). Seals and compactions share structMu, so while a compaction
// runs the armed seal waits and the memtable grows past MemtableMax; nothing
// breaks, reads pay a linear ~1 ns a row for it until the seal gets through.
package lsm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/obs"
)

// Options configures a mutable shard.
type Options struct {
	// MemtableMax is the number of live memtable entries that triggers a
	// background seal. 0 selects 4096; negative disables automatic sealing
	// (Seal must be called explicitly).
	MemtableMax int
	// CompactAt is the segment count that triggers compaction after a seal.
	// 0 selects 4; negative disables automatic compaction.
	CompactAt int

	// Obs, when set, is the registry the shard hangs its instruments on:
	// lsm.memtable_size / lsm.segments / lsm.tombstones gauges,
	// lsm.seal_ns / lsm.compact_ns wall histograms, and
	// lsm.inserts / lsm.deletes / lsm.seals / lsm.compactions counters.
	Obs *obs.Registry
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

// segment is one immutable layer of the shard: the frozen serving index and
// the seal-time sequence that orders it against tombstones.
type segment struct {
	idx    *core.FrozenIndex
	maxSeq uint64
	pool   sync.Pool // *core.Searcher bound to idx
}

func newSegment(idx *core.FrozenIndex, maxSeq uint64) *segment {
	g := &segment{idx: idx, maxSeq: maxSeq}
	g.pool.New = func() interface{} { return core.NewSearcher(g.idx) }
	return g
}

// state is the immutable segment stack, swapped atomically under the write
// lock and readable without it.
type state struct {
	segments []*segment
	epoch    uint64
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

	mu         sync.RWMutex
	mem        core.GroupView        // one row per live memtable entry; IDStart is the identity
	memIDs     map[int]int32         // live memtable id -> its row
	frozenLive map[int]struct{}      // ids live in some segment (not masked)
	tomb       map[int]uint64        // id -> sequence of the masking mutation
	seq        uint64                // mutation sequence, monotone under mu
	state      atomic.Pointer[state] // immutable segment stack
	booted     bool

	// structMu serializes structural work (seal, compact) so at most one
	// freeze/rebuild is in flight.
	structMu    sync.Mutex
	sealArmed   atomic.Bool
	wg          sync.WaitGroup
	closed      atomic.Bool
	seals       atomic.Int64
	compactions atomic.Int64

	gMem, gSegs, gTomb                 *obs.Gauge
	cInserts, cDeletes, cSeals, cComps *obs.Counter
	hSeal, hCompact                    *obs.Histogram
}

// New creates an empty mutable shard for codes of the given bit length.
func New(length int, opts Options) *Shard {
	if length <= 0 {
		panic("lsm: non-positive code length")
	}
	opts = opts.withDefaults()
	s := &Shard{
		opts:       opts,
		length:     length,
		mem:        core.GroupView{Length: length, IDStart: []int32{0}},
		memIDs:     make(map[int]int32),
		frozenLive: make(map[int]struct{}),
		tomb:       make(map[int]uint64),
	}
	s.state.Store(&state{})
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.gMem = reg.Gauge("lsm.memtable_size")
	s.gSegs = reg.Gauge("lsm.segments")
	s.gTomb = reg.Gauge("lsm.tombstones")
	s.cInserts = reg.Counter("lsm.inserts")
	s.cDeletes = reg.Counter("lsm.deletes")
	s.cSeals = reg.Counter("lsm.seals")
	s.cComps = reg.Counter("lsm.compactions")
	s.hSeal = reg.Histogram("lsm.seal_ns")
	s.hCompact = reg.Histogram("lsm.compact_ns")
	return s
}

// Bootstrap seeds the shard with an existing frozen index as its first
// segment — how a server turns a loaded snapshot into a mutable shard. Ids
// in the index must be unique (a duplicate is an error: Len would
// under-report and one Delete would mask two tuples). It must be called
// before any mutation.
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
		s.frozenLive[id] = struct{}{}
	})
	if distinct := len(s.frozenLive); distinct != idx.Len() {
		s.frozenLive = make(map[int]struct{})
		return fmt.Errorf("lsm: bootstrap index holds %d tuples under %d distinct ids", idx.Len(), distinct)
	}
	s.seq++
	st := s.state.Load()
	s.state.Store(&state{segments: []*segment{newSegment(idx, s.seq)}, epoch: st.epoch + 1})
	s.publishGauges()
	return nil
}

// Length returns the code length L in bits.
func (s *Shard) Length() int { return s.length }

// Len returns the number of live tuples.
func (s *Shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.mem.IDs) + len(s.frozenLive)
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
		Len:          len(s.mem.IDs) + len(s.frozenLive),
		MemtableSize: len(s.mem.IDs),
		Segments:     len(st.segments),
		Tombstones:   len(s.tomb),
		Epoch:        st.epoch,
		Seals:        s.seals.Load(),
		Compactions:  s.compactions.Load(),
	}
}

// publishGauges mirrors the layering into the registry; callers hold mu.
func (s *Shard) publishGauges() {
	s.gMem.Set(int64(len(s.mem.IDs)))
	s.gSegs.Set(int64(len(s.state.Load().segments)))
	s.gTomb.Set(int64(len(s.tomb)))
}

// Insert upserts the tuple: any older version of the id — in the memtable or
// in a frozen segment — is superseded. It reports whether an older version
// was replaced.
func (s *Shard) Insert(id int, c bitvec.Code) bool {
	if c.Len() != s.length {
		panic(fmt.Sprintf("lsm: inserting %d-bit code into %d-bit shard", c.Len(), s.length))
	}
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
		if _, ok := s.frozenLive[id]; ok {
			// The frozen copy is now stale: mask it in every current segment.
			delete(s.frozenLive, id)
			s.seq++
			s.tomb[id] = s.seq
			replaced = true
		}
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
			s.Seal(false)
			if s.opts.CompactAt > 0 && len(s.state.Load().segments) > s.opts.CompactAt {
				s.Compact()
			}
		}()
	}
	return replaced
}

// Delete removes the tuple with the given id, wherever its live version
// sits: a memtable id gives up its row, a frozen id becomes a tombstone. It
// reports whether the id was live.
func (s *Shard) Delete(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.booted = true
	if row, ok := s.memIDs[id]; ok {
		s.dropRow(id, int(row))
		s.cDeletes.Inc()
		s.publishGauges()
		return true
	}
	if _, ok := s.frozenLive[id]; ok {
		delete(s.frozenLive, id)
		s.seq++
		s.tomb[id] = s.seq
		s.cDeletes.Inc()
		s.publishGauges()
		return true
	}
	return false
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
// segment's index with tombstone masking — and returns the extended slice;
// stats aggregates the work of the whole fan-out.
func (s *Shard) SearchInto(q bitvec.Code, h int, out []int, stats *core.SearchStats) []int {
	if q.Len() != s.length {
		panic(fmt.Sprintf("lsm: %d-bit query against %d-bit shard", q.Len(), s.length))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// The memtable is a scan engine whose groups are its rows; a small
	// answer stays in the stack buffer.
	var rows [64]int32
	for _, row := range s.mem.Search(q, h, stats, rows[:0]) {
		out = append(out, s.mem.IDs[row])
	}
	for _, seg := range s.state.Load().segments {
		sr := seg.pool.Get().(*core.Searcher)
		for _, id := range sr.Search(q, h) {
			if t, masked := s.tomb[id]; masked && t > seg.maxSeq {
				continue
			}
			out = append(out, id)
		}
		stats.Add(sr.Stats)
		seg.pool.Put(sr)
	}
	return out
}

// Search is SearchInto with a fresh result slice and throwaway statistics.
func (s *Shard) Search(q bitvec.Code, h int) []int {
	var stats core.SearchStats
	return s.SearchInto(q, h, nil, &stats)
}

// TopKInto returns the k nearest live ids with their distances, ordered by
// (distance, id), by core.TopKByRadius over the layered search.
func (s *Shard) TopKInto(q bitvec.Code, k int, stats *core.SearchStats) ([]int, []int) {
	var found []int
	return core.TopKByRadius(s.length, k, func(h int) []int {
		found = s.SearchInto(q, h, found[:0], stats)
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
			if t, masked := s.tomb[id]; masked && t > seg.maxSeq {
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
// the segment's own arena, so the slab is free to take the next rows. With
// compact set, a compaction follows.
func (s *Shard) Seal(compact bool) {
	s.structMu.Lock()
	t0 := time.Now()
	s.mu.Lock()
	if len(s.mem.IDs) > 0 {
		sealed := newSegment(core.BuildFrozen(s.length, s.mem.Codes, s.mem.IDs, core.Options{}), s.seq)
		for _, id := range s.mem.IDs {
			s.frozenLive[id] = struct{}{}
		}
		s.mem.Codes, s.mem.IDs, s.mem.IDStart = s.mem.Codes[:0], s.mem.IDs[:0], s.mem.IDStart[:1]
		clear(s.memIDs)
		st := s.state.Load()
		segs := append(append([]*segment(nil), st.segments...), sealed)
		s.state.Store(&state{segments: segs, epoch: st.epoch + 1})
		s.publishGauges()
		s.seals.Add(1)
		s.cSeals.Inc()
		s.hSeal.RecordSince(t0)
	}
	s.mu.Unlock()
	s.structMu.Unlock()
	if compact {
		s.Compact()
	}
}

// Compact rebuilds the whole segment stack into one segment: the (id, code)
// occurrences in the inputs' leaf slabs that no tombstone masks are collected
// into one row slab and bulk-loaded by a single core.BuildFrozen, which sorts
// them by Gray rank, off-lock while the inputs keep serving, and the output is
// swapped in. One hierarchy over all of them: the build allocates a few dozen
// arrays whatever the survivor count (TestShardCompactAllocs), so there is no
// pointer form to bound by building in chunks. Tombstones no remaining segment
// was sealed after are garbage-collected. Synchronous, like Seal.
func (s *Shard) Compact() {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	t0 := time.Now()
	inputs := s.state.Load().segments
	if len(inputs) == 0 {
		return
	}
	// Snapshot the masking decisions: which (segment, id) occurrences
	// survive, and the sequence horizon the output represents. A tombstone
	// created mid-compaction has a sequence above this snapshot — and so
	// above the output's maxSeq — so the tuple it masks simply stays masked
	// by the live check after the swap.
	total := 0
	for _, seg := range inputs {
		total += seg.idx.Len()
	}
	rows := make([]uint64, 0, total*((s.length+63)/64))
	ids := make([]int, 0, total)
	s.mu.RLock()
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
	// structMu, held since before inputs was read, keeps every Seal out, so
	// the stack is still exactly inputs and the output replaces all of it.
	var segs []*segment
	if out != nil {
		segs = []*segment{out}
	}
	s.state.Store(&state{segments: segs, epoch: s.state.Load().epoch + 1})
	// GC tombstones that mask nothing anymore: one is needed only while a
	// segment sealed before it remains, and only out (at snapSeq) can.
	for id, t := range s.tomb {
		if out == nil || t <= snapSeq {
			delete(s.tomb, id)
		}
	}
	s.publishGauges()
	s.mu.Unlock()
	s.compactions.Add(1)
	s.cComps.Inc()
	s.hCompact.RecordSince(t0)
}

// Close waits for in-flight background seals and compactions. The shard
// must not be mutated concurrently with or after Close.
func (s *Shard) Close() {
	s.closed.Store(true)
	s.wg.Wait()
}
