package lsm

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/planner"
)

// oracle is the brute-force model: one live code per id.
type oracle map[int]bitvec.Code

func (o oracle) search(q bitvec.Code, h int) []int {
	var out []int
	for id, c := range o {
		if _, ok := q.DistanceWithin(c, h); ok {
			out = append(out, id)
		}
	}
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func clustered(rng *rand.Rand, n, bitsLen, clusters, flips int) []bitvec.Code {
	centers := make([]bitvec.Code, clusters)
	for i := range centers {
		centers[i] = bitvec.Rand(rng, bitsLen)
	}
	out := make([]bitvec.Code, n)
	for i := range out {
		c := centers[rng.Intn(clusters)].Clone()
		for f := 0; f < flips; f++ {
			c.FlipBit(rng.Intn(bitsLen))
		}
		out[i] = c
	}
	return out
}

func checkAgainstOracle(t *testing.T, s *Shard, o oracle, rng *rand.Rand, bitsLen, queries int) {
	t.Helper()
	if s.Len() != len(o) {
		t.Fatalf("shard Len=%d oracle=%d", s.Len(), len(o))
	}
	for q := 0; q < queries; q++ {
		query := bitvec.Rand(rng, bitsLen)
		if len(o) > 0 && rng.Intn(3) > 0 {
			ids := make([]int, 0, len(o))
			for id := range o {
				ids = append(ids, id)
			}
			query = o[ids[rng.Intn(len(ids))]].Clone()
			for f := 0; f < rng.Intn(4); f++ {
				query.FlipBit(rng.Intn(bitsLen))
			}
		}
		for h := 0; h <= 8; h++ {
			var stats core.SearchStats
			got := s.SearchInto(query, h, planner.UsePlan, nil, &stats)
			want := o.search(query, h)
			if !equalIDs(got, want) {
				t.Fatalf("search h=%d mismatch: got %v want %v (stats=%+v)", h, got, want, stats)
			}
		}
	}
}

// TestShardVsOracleSequential drives a random interleaving of Insert
// (including id-reusing upserts), Delete, Seal, and Compact against the
// brute-force oracle, checking byte-identical answers throughout. Automatic
// sealing is disabled so every structural transition is deterministic.
func TestShardVsOracleSequential(t *testing.T) {
	for _, bitsLen := range []int{32, 64} {
		bitsLen := bitsLen
		t.Run(fmt.Sprintf("bits=%d", bitsLen), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + bitsLen)))
			s := New(bitsLen, Options{
				MemtableMax: -1,
				CompactAt:   -1,
			})
			defer s.Close()
			o := oracle{}
			nextID := 0
			pool := clustered(rng, 80, bitsLen, 6, 3)

			for step := 0; step < 400; step++ {
				switch op := rng.Intn(20); {
				case op < 8: // fresh insert
					c := pool[rng.Intn(len(pool))].Clone()
					for f := 0; f < rng.Intn(3); f++ {
						c.FlipBit(rng.Intn(bitsLen))
					}
					s.Insert(nextID, c)
					o[nextID] = c
					nextID++
				case op < 11: // upsert an existing id with a new code
					if len(o) == 0 {
						continue
					}
					ids := make([]int, 0, len(o))
					for id := range o {
						ids = append(ids, id)
					}
					id := ids[rng.Intn(len(ids))]
					c := bitvec.Rand(rng, bitsLen)
					if !s.Insert(id, c) {
						t.Fatalf("step %d: upsert of live id %d not reported as replace", step, id)
					}
					o[id] = c
				case op < 16: // delete
					if len(o) > 0 {
						ids := make([]int, 0, len(o))
						for id := range o {
							ids = append(ids, id)
						}
						id := ids[rng.Intn(len(ids))]
						if !s.Delete(id) {
							t.Fatalf("step %d: Delete(%d) reported not found", step, id)
						}
						delete(o, id)
					}
					if s.Delete(1 << 30) {
						t.Fatalf("step %d: Delete of absent id succeeded", step)
					}
				case op < 19: // seal
					s.Seal(false)
				default: // compact
					s.Seal(true)
				}
				if step%20 == 0 {
					checkAgainstOracle(t, s, o, rng, bitsLen, 3)
				}
			}
			s.Seal(true)
			checkAgainstOracle(t, s, o, rng, bitsLen, 20)
			st := s.Stats()
			if st.Segments > 1 {
				t.Fatalf("full compaction left %d segments", st.Segments)
			}
			if st.Epoch == 0 {
				t.Fatalf("structural swaps never bumped the epoch")
			}
		})
	}
}

// TestShardAutoSealCompact lets the background thresholds drive the
// layering: a small memtable bound and compaction trigger, a burst of
// inserts and deletes, then a quiesce and an exact oracle comparison.
func TestShardAutoSealCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New(32, Options{
		MemtableMax: 48,
		CompactAt:   2,
	})
	reg := s.Obs()
	o := oracle{}
	codes := clustered(rng, 600, 32, 8, 3)
	for i, c := range codes {
		s.Insert(i, c)
		o[i] = c
		if i%5 == 0 && i > 0 {
			victim := rng.Intn(i)
			if _, live := o[victim]; live {
				s.Delete(victim)
				delete(o, victim)
			}
		}
	}
	// Quiesce: wait out in-flight background seals, then force a final
	// deterministic seal+compact.
	s.Close()
	s.Seal(true)
	if st := s.Stats(); st.Seals == 0 {
		t.Fatalf("no automatic seal fired below MemtableMax=48 after 600 inserts")
	}
	checkAgainstOracle(t, s, o, rng, 32, 25)
	if got := reg.Counter("lsm.inserts").Value(); got != 600 {
		t.Fatalf("lsm.inserts counter = %d, want 600", got)
	}
	if reg.Counter("lsm.seals").Value() == 0 {
		t.Fatalf("lsm.seals counter never incremented")
	}
}

// TestShardBootstrap starts shards from both builds of the frozen index —
// the pointer build compiled by Freeze, and BuildFrozen — then mutates
// through the frozen layer: deletes of bootstrapped ids must be masked, an
// upsert must supersede the frozen copy, and compaction must fold the
// masked rows away. A snapshot that repeats an id is refused.
func TestShardBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	codes := clustered(rng, 200, 32, 5, 3)
	for _, form := range []string{"dynamic", "frozen"} {
		form := form
		t.Run(form, func(t *testing.T) {
			idx := buildFrozen(codes, nil, core.Options{Window: 8})
			if form == "dynamic" {
				idx = core.Freeze(core.BuildDynamic(codes, nil, core.Options{Window: 8}))
			}
			s := New(32, Options{MemtableMax: -1, CompactAt: -1})
			defer s.Close()
			if err := s.Bootstrap(idx); err != nil {
				t.Fatal(err)
			}
			if err := s.Bootstrap(idx); err == nil {
				t.Fatal("second Bootstrap should fail")
			}
			o := oracle{}
			for i, c := range codes {
				o[i] = c
			}
			// Delete a frozen id, upsert another, insert a fresh one.
			s.Delete(3)
			delete(o, 3)
			moved := bitvec.Rand(rng, 32)
			if !s.Insert(7, moved) {
				t.Fatal("upsert of bootstrapped id not reported as replace")
			}
			o[7] = moved
			s.Insert(9000, codes[0])
			o[9000] = codes[0]
			if st := s.Stats(); st.Tombstones != 2 {
				t.Fatalf("want 2 tombstones (delete + upsert), got %d", st.Tombstones)
			}
			checkAgainstOracle(t, s, o, rng, 32, 15)
			s.Seal(true)
			if st := s.Stats(); st.Tombstones != 0 {
				t.Fatalf("compaction left %d tombstones", st.Tombstones)
			}
			checkAgainstOracle(t, s, o, rng, 32, 15)
		})
	}
	t.Run("duplicate-id", func(t *testing.T) {
		dup := buildFrozen(codes[:3], []int{4, 5, 4}, core.Options{})
		s := New(32, Options{MemtableMax: -1, CompactAt: -1})
		defer s.Close()
		if err := s.Bootstrap(dup); err == nil {
			t.Fatal("Bootstrap accepted an index that holds id 4 twice")
		}
		if st := s.Stats(); st.Len != 0 || st.Segments != 0 {
			t.Fatalf("refused Bootstrap left state: %+v", st)
		}
	})
}

// TestShardCompactSameCodeTwoSegments pins the one decision compaction makes:
// a tuple is dropped per (segment, id) occurrence, not per id and not per
// (id, code). Id 1 sits in segment A with code c, masked by a later upsert,
// and in segment B with the same code c, live; after Compact exactly one
// occurrence must remain. A drop set keyed by id alone, or by (id, code),
// loses the live one.
func TestShardCompactSameCodeTwoSegments(t *testing.T) {
	s := New(32, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	c := bitvec.FromUint64(0xCAFE0001, 32)
	other := bitvec.FromUint64(0x0000FFFF, 32)
	s.Insert(1, c)
	s.Insert(2, other)
	s.Seal(false) // segment A: {1:c, 2:other}
	s.Insert(1, other)
	s.Insert(1, c) // memtable upsert back to c; A's copy stays tombstoned
	s.Seal(false)  // segment B: {1:c}
	if st := s.Stats(); st.Segments != 2 || st.Tombstones != 1 || st.Len != 2 {
		t.Fatalf("before compaction: %+v", st)
	}
	for _, phase := range []string{"before", "after"} {
		if got := s.Search(c, 0); len(got) != 1 || got[0] != 1 {
			t.Fatalf("%s compaction: Search(c, 0) = %v, want [1]", phase, got)
		}
		n := 0
		s.Tuples(func(id int, code bitvec.Code) {
			if id == 1 {
				n++
				if !code.Equal(c) {
					t.Fatalf("%s compaction: id 1 carries %v, want %v", phase, code, c)
				}
			}
		})
		if n != 1 {
			t.Fatalf("%s compaction: Tuples yields id 1 %d times, want once", phase, n)
		}
		s.Compact()
	}
	if st := s.Stats(); st.Segments != 1 || st.Tombstones != 0 || st.Len != 2 {
		t.Fatalf("after compaction: %+v", st)
	}
}

// TestShardTopK checks radius-escalation TopK over the layered shard against
// a brute-force (distance, id) sort.
func TestShardTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := New(32, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	o := oracle{}
	for i, c := range clustered(rng, 150, 32, 6, 3) {
		s.Insert(i, c)
		o[i] = c
		if i == 70 {
			s.Seal(false) // split across a segment boundary
		}
	}
	s.Delete(5)
	delete(o, 5)
	var stats core.SearchStats
	for trial := 0; trial < 20; trial++ {
		q := bitvec.Rand(rng, 32)
		k := 1 + rng.Intn(12)
		wantIDs, wantDs := o.topK(q, k)
		gotIDs, gotDs := s.TopKInto(q, k, &stats)
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("TopKInto k=%d: got %v want %v", k, gotIDs, wantIDs)
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] || gotDs[i] != wantDs[i] {
				t.Fatalf("TopKInto k=%d: got %v/%v want %v/%v", k, gotIDs, gotDs, wantIDs, wantDs)
			}
		}
	}
}

// TestShardTopKOneState: a top-k escalates over many radii, and an upsert
// between two of them must not show. One goroutine moves id 1 back and forth
// between q and a code 20 bits away; every TopKInto(q, 1) must report id 1 at
// distance 0 or 20 — a distance that matches a version of the tuple — never
// the radius at which a version moved in under the escalation.
func TestShardTopKOneState(t *testing.T) {
	s := New(64, Options{MemtableMax: -1})
	defer s.Close()
	q := bitvec.New(64)
	far := q.Clone()
	for b := 0; b < 20; b++ {
		far.FlipBit(b)
	}
	s.Insert(1, far)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.Insert(1, q)
			} else {
				s.Insert(1, far)
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	var stats core.SearchStats
	for i := 0; i < 20000; i++ {
		ids, dists := s.TopKInto(q, 1, &stats)
		if len(ids) != 1 || ids[0] != 1 || (dists[0] != 0 && dists[0] != 20) {
			t.Fatalf("call %d: TopKInto(q, 1) = %v at %v; id 1 is only ever at distance 0 or 20", i, ids, dists)
		}
	}
}

// TestShardConcurrentSearchUnderMutation is the acceptance test: continuous
// Insert/Delete with background seal+compact while searcher goroutines hammer
// the shard. A stable core of tuples is never mutated, so every concurrent
// search must contain exactly the stable ids its radius demands; after the
// writers quiesce, answers must be byte-identical to the brute-force oracle.
// Every seal and compaction plans its output while the searchers run, so
// plans attach mid-search, and searches must have run through them. Run under
// -race (make test-race) for the data-race half of the guarantee.
func TestShardConcurrentSearchUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	s := New(64, Options{
		MemtableMax: 64,
		CompactAt:   2,
	})
	reg := s.Obs()
	o := oracle{}
	var oMu sync.Mutex

	// Stable core: ids 0..99, never touched again.
	stable := clustered(rng, 100, 64, 4, 2)
	for i, c := range stable {
		s.Insert(i, c)
		o[i] = c
	}
	s.Seal(false)

	churn := clustered(rng, 400, 64, 6, 3)
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator: churn ids >= 1000 (insert, upsert, delete) with background
	// seals and compactions firing off the thresholds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(5678))
		next := 1000
		live := []int{}
		for i := 0; i < 1500; i++ {
			switch {
			case len(live) == 0 || mrng.Intn(3) > 0:
				c := churn[mrng.Intn(len(churn))].Clone()
				c.FlipBit(mrng.Intn(64))
				id := next
				next++
				oMu.Lock()
				s.Insert(id, c)
				o[id] = c
				oMu.Unlock()
				live = append(live, id)
			default:
				k := mrng.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				oMu.Lock()
				s.Delete(id)
				delete(o, id)
				oMu.Unlock()
			}
			if i%200 == 0 {
				s.Seal(i%400 == 0)
			}
		}
		close(done)
	}()

	// Searchers: the stable ids a query's radius demands must always be
	// present, whatever the churn does around them.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := stable[srng.Intn(len(stable))].Clone()
				for f := 0; f < srng.Intn(3); f++ {
					q.FlipBit(srng.Intn(64))
				}
				h := srng.Intn(7)
				got := map[int]bool{}
				for _, id := range s.Search(q, h) {
					if got[id] {
						t.Errorf("duplicate id %d in search result", id)
						return
					}
					got[id] = true
				}
				for id := 0; id < 100; id++ {
					if _, ok := q.DistanceWithin(stable[id], h); ok && !got[id] {
						t.Errorf("stable id %d missing from search (h=%d)", id, h)
						return
					}
				}
			}
		}(int64(9000 + w))
	}

	wg.Wait()
	if planned := reg.Counter("lsm.search_mih").Value() + reg.Counter("lsm.search_scan").Value(); planned == 0 {
		t.Fatal("no concurrent search ran through a segment's plan")
	}
	s.Close()
	s.Seal(true)
	checkAgainstOracle(t, s, o, rng, 64, 25)
	if st := s.Stats(); st.Seals < 2 {
		t.Fatalf("expected background seals during churn, got %d", st.Seals)
	}
}

// TestShardSealEmptyAndCompactSingle checks the structural no-op edges.
func TestShardSealEmptyAndCompactSingle(t *testing.T) {
	s := New(32, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	s.Seal(true) // empty shard: nothing to do, must not wedge or panic
	if st := s.Stats(); st.Segments != 0 || st.Len != 0 {
		t.Fatalf("empty seal produced state: %+v", st)
	}
	s.Insert(1, bitvec.FromUint64(0xF0F0F0F0, 32))
	s.Seal(false)
	s.Compact() // single segment: no-op
	if st := s.Stats(); st.Segments != 1 {
		t.Fatalf("compact of one segment changed count: %+v", st)
	}
	// Deleting every tuple and compacting must drop the segment entirely.
	s.Insert(2, bitvec.FromUint64(0x0F0F0F0F, 32))
	s.Seal(false)
	s.Delete(1)
	s.Delete(2)
	s.Seal(true)
	if st := s.Stats(); st.Segments != 0 || st.Len != 0 || st.Tombstones != 0 {
		t.Fatalf("compaction of fully-deleted shard left state: %+v", st)
	}
	if got := s.Search(bitvec.FromUint64(0xF0F0F0F0, 32), 32); len(got) != 0 {
		t.Fatalf("empty shard answered %v", got)
	}
}

// TestShardSealKeepsServing pins the single-phase seal's contract: when Seal
// returns the memtable is empty, the tuple is searchable in its frozen
// segment, and the structural epoch has advanced by exactly one — there is
// no second swap.
func TestShardSealKeepsServing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := New(32, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 40 && time.Now().Before(deadline); i++ {
		c := bitvec.Rand(rng, 32)
		s.Insert(i, c)
		before := s.Stats().Epoch
		s.Seal(false)
		if got := s.Search(c, 0); len(got) == 0 {
			t.Fatalf("tuple %d unsearchable immediately after Seal", i)
		}
		if st := s.Stats(); st.MemtableSize != 0 || st.Epoch != before+1 {
			t.Fatalf("after Seal %d: epoch %d -> %d, stats %+v", i, before, st.Epoch, st)
		}
	}
}

// buildFrozen is core.BuildFrozen over codes and their ids, which it leaves
// as they are.
func buildFrozen(codes []bitvec.Code, ids []int, opts core.Options) *core.FrozenIndex {
	rows := make([]uint64, 0, len(codes)*len(codes[0].Words()))
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	return core.BuildFrozen(codes[0].Len(), rows, slices.Clone(ids), opts)
}
