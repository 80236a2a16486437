package lsm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/gray"
	"haindex/internal/planner"
)

// model drives one shard and the map oracle through the same operations,
// logging each, and compares the two after every step. A failure prints the
// seed and the operations that led to it.
type model struct {
	t    *testing.T
	seed int64
	bits int
	rng  *rand.Rand
	s    *Shard
	o    oracle
	ops  []string
}

func newModel(t *testing.T, bitsLen int, seed int64) *model {
	m := &model{
		t: t, seed: seed, bits: bitsLen,
		rng: rand.New(rand.NewSource(seed)),
		s:   New(bitsLen, Options{MemtableMax: -1, CompactAt: -1}),
		o:   oracle{},
	}
	t.Cleanup(m.s.Close)
	return m
}

func (m *model) failf(format string, args ...interface{}) {
	m.t.Helper()
	m.t.Fatalf("seed %d, %d-bit codes: %s\nops:\n  %s", m.seed, m.bits, fmt.Sprintf(format, args...), strings.Join(m.ops, "\n  "))
}

func (m *model) insert(id int, c bitvec.Code) {
	m.t.Helper()
	m.ops = append(m.ops, fmt.Sprintf("insert %d %v", id, c))
	_, live := m.o[id]
	if got := m.s.Insert(id, c); got != live {
		m.failf("Insert(%d) reported replaced=%v, oracle holds the id: %v", id, got, live)
	}
	m.o[id] = c.Clone()
	m.check()
}

func (m *model) delete(id int) {
	m.t.Helper()
	m.ops = append(m.ops, fmt.Sprintf("delete %d", id))
	_, live := m.o[id]
	if got := m.s.Delete(id); got != live {
		m.failf("Delete(%d) = %v, oracle holds the id: %v", id, got, live)
	}
	delete(m.o, id)
	m.check()
}

func (m *model) seal(compact bool) {
	m.t.Helper()
	m.ops = append(m.ops, fmt.Sprintf("seal compact=%v", compact))
	m.s.Seal(compact)
	if st := m.s.Stats(); st.MemtableSize != 0 {
		m.failf("memtable holds %d rows after Seal", st.MemtableSize)
	}
	m.check()
}

// liveID returns a random id the oracle holds (sorted first, so a seed
// replays the same script), or -1.
func (m *model) liveID() int {
	if len(m.o) == 0 {
		return -1
	}
	ids := make([]int, 0, len(m.o))
	for id := range m.o {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[m.rng.Intn(len(ids))]
}

// check compares the shard with the oracle: the memtable slab's own
// invariants, Len, Tuples (every id once, with its code), one search at a
// random radius and one top-k.
func (m *model) check() {
	m.t.Helper()
	s := m.s
	nw := s.mem.Words()
	rows := len(s.mem.IDs)
	if len(s.memIDs) != rows || len(s.mem.Codes) != rows*nw || len(s.mem.IDStart) != rows+1 {
		m.failf("slab out of step: %d ids in the map, %d rows, %d code words, %d offsets", len(s.memIDs), rows, len(s.mem.Codes), len(s.mem.IDStart))
	}
	for row, id := range s.mem.IDs {
		if got, ok := s.memIDs[id]; !ok || int(got) != row || int(s.mem.IDStart[row]) != row {
			m.failf("row %d holds id %d, the map sends it to row %d (present %v), offset %d", row, id, got, ok, s.mem.IDStart[row])
		}
	}
	if err := checkLiveSets(s); err != nil {
		m.failf("%v", err)
	}
	if s.Len() != len(m.o) {
		m.failf("Len = %d, oracle holds %d", s.Len(), len(m.o))
	}
	seen := map[int]bool{}
	s.Tuples(func(id int, c bitvec.Code) {
		want, live := m.o[id]
		if !live || seen[id] || !c.Equal(want) {
			m.failf("Tuples yields id %d with %v (live %v, repeated %v, oracle %v)", id, c, live, seen[id], want)
		}
		seen[id] = true
	})
	if len(seen) != len(m.o) {
		m.failf("Tuples yields %d ids, oracle holds %d", len(seen), len(m.o))
	}

	q := bitvec.Rand(m.rng, m.bits)
	if id := m.liveID(); id >= 0 && m.rng.Intn(4) > 0 {
		q = m.o[id].Clone()
		for f := m.rng.Intn(4); f > 0; f-- {
			q.FlipBit(m.rng.Intn(m.bits))
		}
	}
	h := m.rng.Intn(9)
	var stats core.SearchStats
	if got, want := s.SearchInto(q, h, planner.UsePlan, nil, &stats), m.o.search(q, h); !equalIDs(got, want) {
		m.failf("search %v h=%d: got %v, want %v", q, h, got, want)
	}
	k := 1 + m.rng.Intn(6)
	gotIDs, gotDs := s.TopKInto(q, k, &stats)
	wantIDs, wantDs := m.o.topK(q, k)
	if fmt.Sprint(gotIDs, gotDs) != fmt.Sprint(wantIDs, wantDs) {
		m.failf("top-%d of %v: got %v at %v, want %v at %v", k, q, gotIDs, gotDs, wantIDs, wantDs)
	}
}

// topK is the brute-force (distance, id) order.
func (o oracle) topK(q bitvec.Code, k int) ([]int, []int) {
	type cand struct{ id, d int }
	cands := make([]cand, 0, len(o))
	for id, c := range o {
		d, _ := q.DistanceWithin(c, q.Len())
		cands = append(cands, cand{id, d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	var ids, ds []int
	for _, c := range cands {
		ids = append(ids, c.id)
		ds = append(ds, c.d)
	}
	return ids, ds
}

// TestShardModel is the seeded differential test of the slab memtable over
// the segment stack: random insert / upsert with the same code / upsert with
// a new code / delete / seal / compact sequences at one-word and three-word
// codes (the two branches of GroupView.Scan), checked against the oracle
// after every operation.
func TestShardModel(t *testing.T) {
	for _, bitsLen := range []int{64, 130} {
		for seed := int64(1); seed <= 4; seed++ {
			m := newModel(t, bitsLen, 1000*int64(bitsLen)+seed)
			pool := clustered(m.rng, 60, bitsLen, 5, 3)
			next := 0
			for step := 0; step < 250; step++ {
				switch op := m.rng.Intn(20); {
				case op < 8: // fresh id, often a code another id already carries
					c := pool[m.rng.Intn(len(pool))].Clone()
					if m.rng.Intn(2) == 0 {
						c.FlipBit(m.rng.Intn(bitsLen))
					}
					m.insert(next, c)
					next++
				case op < 10: // upsert with the code the id already has
					if id := m.liveID(); id >= 0 {
						m.insert(id, m.o[id].Clone())
					}
				case op < 13: // upsert with a new code
					if id := m.liveID(); id >= 0 {
						m.insert(id, bitvec.Rand(m.rng, bitsLen))
					}
				case op < 17:
					if id := m.liveID(); id >= 0 {
						m.delete(id)
					}
					m.delete(1 << 30) // never live
				case op < 19:
					m.seal(false)
				default:
					m.seal(true)
				}
			}
			m.seal(true)
			if st := m.s.Stats(); st.Segments > 1 || st.Tombstones != 0 {
				m.failf("full compaction left %+v", st)
			}
		}
	}
}

// TestShardModelRowMoves pins the memtable's row moves one by one, each on a
// memtable over a sealed segment so a wrong move cannot hide behind an empty
// stack.
func TestShardModelRowMoves(t *testing.T) {
	for _, bitsLen := range []int{64, 130} {
		run := func(name string, script func(m *model, codes []bitvec.Code)) {
			t.Run(fmt.Sprintf("%s/bits=%d", name, bitsLen), func(t *testing.T) {
				m := newModel(t, bitsLen, int64(bitsLen))
				codes := clustered(m.rng, 16, bitsLen, 3, 2)
				m.insert(100, codes[0])
				m.insert(101, codes[1])
				m.seal(false)
				script(m, codes)
				m.seal(true)
			})
		}
		run("delete-the-only-row", func(m *model, codes []bitvec.Code) {
			m.insert(1, codes[2])
			m.delete(1)
			m.insert(2, codes[3]) // the emptied slab takes rows again
		})
		run("delete-the-last-row", func(m *model, codes []bitvec.Code) {
			for id := 1; id <= 4; id++ {
				m.insert(id, codes[id])
			}
			m.delete(4)
			m.delete(3)
		})
		run("delete-the-first-row", func(m *model, codes []bitvec.Code) {
			for id := 1; id <= 4; id++ {
				m.insert(id, codes[id])
			}
			m.delete(1) // id 4 moves into row 0
			m.delete(4) // and is found there
			m.insert(5, codes[5])
		})
		run("delete-a-row-twice", func(m *model, codes []bitvec.Code) {
			for id := 1; id <= 3; id++ {
				m.insert(id, codes[id])
			}
			m.delete(2)
			m.delete(2) // not live: must not disturb the row that moved in
			m.delete(100)
			m.delete(100) // the same, for a tombstoned segment id
		})
		run("upsert-a-memtable-id-in-place", func(m *model, codes []bitvec.Code) {
			for id := 1; id <= 3; id++ {
				m.insert(id, codes[id])
			}
			m.insert(2, codes[7])
			m.insert(2, codes[7]) // same code: a no-op that still reports the replace
			m.insert(2, codes[1]) // a code id 101 carries in the segment
			if rows := m.s.Stats().MemtableSize; rows != 3 {
				m.failf("three ids upserted in place occupy %d rows", rows)
			}
			m.insert(101, codes[8]) // a segment id: masked in its segment, plus a new row
		})
	}
}

// TestShardMemtablePastMax: while a structural step holds structMu (a long
// compaction, in production) the armed seal waits and the memtable keeps
// growing past MemtableMax; it must keep answering exactly, and the waiting
// seal must then take every row.
func TestShardMemtablePastMax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(64, Options{MemtableMax: 16, CompactAt: -1})
	o := oracle{}
	s.structMu.Lock()
	for id, c := range clustered(rng, 200, 64, 6, 3) {
		s.Insert(id, c)
		o[id] = c
	}
	if st := s.Stats(); st.MemtableSize != 200 || st.Seals != 0 {
		t.Fatalf("with sealing held off: %+v", st)
	}
	checkAgainstOracle(t, s, o, rng, 64, 10)
	s.structMu.Unlock()
	s.Close()
	if st := s.Stats(); st.MemtableSize != 0 || st.Seals != 1 || st.Segments != 1 || st.Len != 200 {
		t.Fatalf("after the held seal ran: %+v", st)
	}
	checkAgainstOracle(t, s, o, rng, 64, 10)
}

// bandAt is where a compaction's build used to be cut: PR 23 froze the
// Gray-sorted survivors 1<<14 at a time. Compact is one core.BuildFrozen now
// and no boundary is left to straddle; the data below still puts its
// tombstone bands and its split code where the cuts fell.
const bandAt = 1 << 14

// TestShardCompactTombstoneBands (TestShardCompactAcrossChunks while the build
// was chunked) compacts some 37.8k occurrences from two segments, with bands
// of tombstoned occurrences a third dense around survivors 16,384 and 32,768
// in Gray order and one code whose two ids sit on either side of the first,
// and compares every answer at every third threshold with the oracle.
func TestShardCompactTombstoneBands(t *testing.T) {
	const bitsLen = 64
	rng := rand.New(rand.NewSource(23))
	s := New(bitsLen, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	o := oracle{}
	// Every code twice, under ids 2i and 2i+1: its two occurrences sort side
	// by side, so a boundary at an odd survivor splits one.
	distinct := clustered(rng, bandAt+2500, bitsLen, 400, 6)
	for i, c := range distinct {
		for _, id := range []int{2 * i, 2*i + 1} {
			s.Insert(id, c)
			o[id] = c
		}
		if i == len(distinct)*3/4 {
			s.Seal(false)
		}
	}
	s.Seal(false)

	// The occurrences in the order Compact builds them: by Gray rank, the
	// two ids of a code side by side.
	type occ struct {
		id   int
		code bitvec.Code
	}
	var ids []int
	var codes []bitvec.Code
	s.mu.RLock()
	for _, seg := range s.state.Load().segments {
		seg.tuples(func(id int, c bitvec.Code) {
			ids = append(ids, id)
			codes = append(codes, c)
		})
	}
	s.mu.RUnlock()
	gray.Sort(codes, ids)
	order := make([]occ, len(ids))
	for i := range order {
		order[i] = occ{ids[i], codes[i]}
	}
	if len(order) <= 2*bandAt+1000 {
		t.Fatalf("only %d occurrences", len(order))
	}
	drop := func(pos int) {
		if !s.Delete(order[pos].id) {
			t.Fatalf("occurrence %d (id %d) was not live", pos, order[pos].id)
		}
		delete(o, order[pos].id)
	}
	// Tombstone every third occurrence through a band around each boundary
	// (which leaves one group in three whole). Every drop ahead of a boundary
	// pushes it one occurrence to the right, so the bands reach further right
	// than left.
	for pos := bandAt - 60; pos < bandAt+200; pos += 3 {
		drop(pos)
	}
	for pos := 2*bandAt - 60; pos < 2*bandAt+600; pos += 3 {
		drop(pos)
	}
	survivors := func() (pos []int) {
		for p, oc := range order {
			if _, live := o[oc.id]; live {
				pos = append(pos, p)
			}
		}
		return pos
	}
	// Move the first boundary until it falls between the two ids of one code.
	sv := survivors()
	for p := 0; !order[sv[bandAt-1]].code.Equal(order[sv[bandAt]].code); p++ {
		if p > 12 {
			t.Fatal("no code straddles the first chunk boundary")
		}
		drop(p)
		sv = survivors()
	}
	if len(sv) <= 2*bandAt {
		t.Fatalf("%d survivors do not fill three chunks", len(sv))
	}
	for _, b := range []int{bandAt, 2 * bandAt} {
		if sv[b-1]-sv[b-6] == 5 || sv[b+5]-sv[b] == 5 {
			t.Fatalf("no tombstone on one side of the boundary at survivor %d: occurrences %v | %v", b, sv[b-6:b], sv[b:b+6])
		}
	}
	split := order[sv[bandAt]]

	s.Compact()
	if st := s.Stats(); st.Len != len(o) || st.Segments != 1 || st.Tombstones != 0 || st.MemtableSize != 0 {
		t.Fatalf("after compaction: %+v, oracle holds %d", st, len(o))
	}
	if seg := s.state.Load().segments[0]; seg.idx.Len() != len(o) {
		t.Fatalf("compacted segment holds %d tuples, oracle %d", seg.idx.Len(), len(o))
	}
	if got, want := s.Search(split.code, 0), o.search(split.code, 0); len(want) != 2 || !equalIDs(got, want) {
		t.Fatalf("the code split across the boundary: got %v, want %v", got, want)
	}
	queries := []bitvec.Code{split.code, order[sv[2*bandAt]].code, bitvec.Rand(rng, bitsLen)}
	for i := 0; i < 5; i++ {
		q := order[sv[rng.Intn(len(sv))]].code.Clone()
		q.FlipBit(rng.Intn(bitsLen))
		queries = append(queries, q)
	}
	for _, q := range queries {
		for h := 0; h <= bitsLen; h += 3 {
			if got, want := s.Search(q, h), o.search(q, h); !equalIDs(got, want) {
				t.Fatalf("h=%d: %d ids, oracle %d", h, len(got), len(want))
			}
		}
	}
}

// TestShardMemtableScanCost pins the memtable's read cost: one distance
// computation per row, whatever the codes — a linear scan, no hierarchy.
func TestShardMemtableScanCost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := New(64, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	const n = 1000
	for id, c := range clustered(rng, n, 64, 8, 3) {
		s.Insert(id, c)
	}
	var stats core.SearchStats
	s.SearchInto(bitvec.Rand(rng, 64), 3, planner.UsePlan, nil, &stats)
	if stats.DistanceComputations != n || stats.LeavesChecked != n || stats.NodesVisited != 0 {
		t.Fatalf("memtable-only search over %d rows reports %+v", n, stats)
	}
}

// TestShardInsertAllocs pins the insert path's allocation ceiling: appending
// a row allocates only when the slab or the id map grows, which amortises to
// well under one allocation an insert. An H-Build on the path (the parent
// flushed one every 256th new code) costs dozens.
func TestShardInsertAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New(64, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	codes := clustered(rng, 4096, 64, 16, 4)
	next := 0
	batch := func() {
		for _, c := range codes {
			s.Insert(next, c)
			next++
		}
	}
	batch()
	s.Seal(false) // the slab keeps its capacity across a seal
	if perInsert := testing.AllocsPerRun(3, batch) / float64(len(codes)); perInsert > 1 {
		t.Fatalf("%.2f allocations an insert into a warmed slab, want at most 1", perInsert)
	}
}
