package lsm

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mih"
	"haindex/internal/planner"
	"haindex/internal/wire"
)

// strategies are the three engines a segment's plan chooses among.
var strategies = []planner.Strategy{planner.UseHA, planner.UseMIH, planner.UseScan}

// checkSegmentEngines holds every segment of s, searched by HA, MIH and the
// scan at every threshold from 0 to the code length, to a brute scan of the
// segment's own unmasked rows, and the whole shard to the oracle. Every
// segment must be planned.
func checkSegmentEngines(t *testing.T, s *Shard, o oracle, rng *rand.Rand, stage string) {
	t.Helper()
	bitsLen := s.Length()
	s.mu.RLock()
	segs := s.state.Load().segments
	// A random query, and one a bit off a stored code.
	near := segs[rng.Intn(len(segs))].idx.Groups()
	queries := []bitvec.Code{bitvec.Rand(rng, bitsLen), near.Code(rng.Intn(near.Count())).Clone()}
	queries[1].FlipBit(rng.Intn(bitsLen))
	for si, seg := range segs {
		if seg.plan.Load() == nil {
			s.mu.RUnlock()
			t.Fatalf("%s: segment %d of %d is unplanned", stage, si, len(segs))
		}
		for _, q := range queries {
			type row struct{ id, d int }
			var rows []row
			seg.tuples(func(id int, c bitvec.Code) {
				rows = append(rows, row{id, q.Distance(c)})
			})
			for h := 0; h <= bitsLen; h++ {
				var want []int
				for _, r := range rows {
					if r.d <= h {
						want = append(want, r.id)
					}
				}
				slices.Sort(want)
				for _, st := range strategies {
					var stats core.SearchStats
					got := s.searchSegment(seg, st, q, h, nil, &stats)
					slices.Sort(got)
					if !slices.Equal(got, want) {
						s.mu.RUnlock()
						t.Fatalf("%s: segment %d (%d rows) by %s at h=%d: %d ids, brute scan %d", stage, si, seg.idx.Len(), st, h, len(got), len(want))
					}
				}
			}
		}
	}
	s.mu.RUnlock()
	checkAgainstOracle(t, s, o, rng, bitsLen, 4)
}

// waitPlanned polls lsm.unplanned_segments until every segment of s is
// planned — Bootstrap and Frozen plan their segment in the background — and
// fails past a deadline.
func waitPlanned(t *testing.T, s *Shard) {
	t.Helper()
	g := s.Obs().Gauge("lsm.unplanned_segments")
	for deadline := time.Now().Add(30 * time.Second); g.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("lsm.unplanned_segments = %d after 30s", g.Value())
		}
	}
}

// TestBootstrapPlansBase: a bootstrapped shard that is never sealed plans
// its base by itself, and then every pin runs on it: at every threshold each
// of UsePlan, UseHA, UseMIH and UseScan answers the brute oracle, and a
// pinned search moves its own engine's lsm.search_* counter and no other. The
// plan's two phases are timed on load.mih_build_ns and load.plan_ns.
func TestBootstrapPlansBase(t *testing.T) {
	const n, bitsLen = 4000, 64
	rng := rand.New(rand.NewSource(4000))
	codes := clustered(rng, n, bitsLen, 40, 5)
	ids := make([]int, n)
	o := oracle{}
	for i := range ids {
		ids[i] = 5*i + 2
		o[ids[i]] = codes[i]
	}
	s := New(bitsLen, Options{MemtableMax: -1, CompactAt: -1})
	reg := s.Obs()
	defer s.Close()
	if err := s.Bootstrap(buildFrozen(codes, ids, core.Options{})); err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, s)
	if st := s.Stats(); st.Segments != 1 || st.Seals != 0 || s.state.Load().segments[0].plan.Load() == nil {
		t.Fatalf("after Bootstrap: %+v", st)
	}
	if reg.Gauge("load.mih_build_ns").Value() <= 0 || reg.Gauge("load.plan_ns").Value() <= 0 {
		t.Fatal("the bootstrapped base's plan is untimed")
	}
	q := codes[rng.Intn(n)].Clone()
	q.FlipBit(rng.Intn(bitsLen))
	checkPins(t, s, o, q, "bootstrapped")
}

// checkPins holds a search of q at every threshold from 0 to the code length
// under each of UsePlan, UseHA, UseMIH and UseScan to the oracle, and
// requires it to move exactly one lsm.search_* counter, by one: lsm.search_ha
// while the shard's one segment is unplanned, the pinned engine's once it is
// planned.
func checkPins(t *testing.T, s *Shard, o oracle, q bitvec.Code, stage string) {
	t.Helper()
	counts := func() (c [planner.UseScan + 1]int64) {
		for st := range c {
			c[st] = s.Obs().Counter("lsm.search_" + planner.Strategy(st).String()).Value()
		}
		return c
	}
	unplanned := s.state.Load().segments[0].plan.Load() == nil
	for h := 0; h <= s.Length(); h++ {
		want := o.search(q, h)
		for _, pin := range []planner.Strategy{planner.UsePlan, planner.UseHA, planner.UseMIH, planner.UseScan} {
			before := counts()
			var stats core.SearchStats
			if got := s.SearchInto(q, h, pin, nil, &stats); !equalIDs(got, want) {
				t.Fatalf("%s: pin %s at h=%d: %d ids, the oracle %d", stage, pin, h, len(got), len(want))
			}
			after := counts()
			moved := 0
			for st := range after {
				if d := after[st] - before[st]; d == 1 {
					moved++
					ran := planner.Strategy(st)
					if (unplanned && ran != planner.UseHA) || (!unplanned && pin != planner.UsePlan && ran != pin) {
						t.Fatalf("%s: pin %s at h=%d moved lsm.search_%s", stage, pin, h, ran)
					}
				} else if d != 0 {
					t.Fatalf("%s: pin %s at h=%d moved lsm.search_%s by %d", stage, pin, h, planner.Strategy(st), d)
				}
			}
			if moved != 1 {
				t.Fatalf("%s: pin %s at h=%d moved %d engine counters, want 1", stage, pin, h, moved)
			}
		}
	}
}

// TestSegmentEnginesAgree: every segment of a churned shard — the
// bootstrapped base once Bootstrap's background plan lands, the seals, a partial
// fold's output beside the untouched base, and a full fold — answers
// byte-identically under HA, MIH and the scan at every threshold, at one
// word and at three words a code.
func TestSegmentEnginesAgree(t *testing.T) {
	for _, bitsLen := range []int{64, 130} {
		t.Run(fmt.Sprintf("bits=%d", bitsLen), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(3700 + bitsLen)))
			pool := clustered(rng, 2000, bitsLen, 30, bitsLen/16)
			o := oracle{}
			ids := make([]int, 1000)
			for i := range ids {
				ids[i] = i
				o[i] = pool[i]
			}
			s := New(bitsLen, Options{MemtableMax: -1, CompactAt: -1})
			defer s.Close()
			if err := s.Bootstrap(buildFrozen(pool[:1000], ids, core.Options{})); err != nil {
				t.Fatal(err)
			}
			base := s.state.Load().segments[0]
			waitPlanned(t, s)
			if base.plan.Load() == nil {
				t.Fatal("Bootstrap did not plan the base")
			}
			next := 1000
			churn := func(inserts int) {
				for i := 0; i < inserts; i++ {
					c := pool[1000+rng.Intn(1000)].Clone()
					c.FlipBit(rng.Intn(bitsLen))
					s.Insert(next, c)
					o[next] = c
					next++
					if i%4 == 0 { // delete or upsert a live id, base ones included
						id := rng.Intn(next)
						if _, live := o[id]; !live {
							continue
						}
						if i%8 == 0 {
							s.Delete(id)
							delete(o, id)
						} else {
							c := pool[rng.Intn(len(pool))]
							s.Insert(id, c)
							o[id] = c
						}
					}
				}
			}
			churn(150)
			s.Seal(false)
			checkSegmentEngines(t, s, o, rng, "base and one seal")
			churn(150)
			s.Seal(false)
			checkSegmentEngines(t, s, o, rng, "base and two seals")
			s.compact(false)
			if segs := s.state.Load().segments; len(segs) != 2 || segs[0] != base {
				t.Fatalf("the background policy rewrote the base: %d segments", len(segs))
			}
			checkSegmentEngines(t, s, o, rng, "partial fold")
			churn(100)
			s.Seal(true)
			if st := s.Stats(); st.Segments != 1 || st.Tombstones != 0 {
				t.Fatalf("after a full fold: %+v", st)
			}
			checkSegmentEngines(t, s, o, rng, "full fold")
		})
	}
}

// checkLiveSets checks every segment's id sets against its arena: the live
// and dead ids of a segment are its ids, each once, with no dead id live;
// and no id is live in two places, two segments or a segment and the
// memtable.
func checkLiveSets(s *Shard) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	where := map[int]string{}
	for id := range s.memIDs {
		where[id] = "the memtable"
	}
	for si, seg := range s.state.Load().segments {
		if len(seg.live)+len(seg.dead) != seg.idx.Len() {
			return fmt.Errorf("segment %d: %d live and %d dead ids over %d rows", si, len(seg.live), len(seg.dead), seg.idx.Len())
		}
		rows := map[int]bool{}
		seg.idx.Tuples(func(id int, _ bitvec.Code) { rows[id] = true })
		for _, id := range seg.dead {
			if _, live := seg.live[id]; live || !rows[id] {
				return fmt.Errorf("segment %d: dead id %d is live (%v) or not a row (%v)", si, id, live, !rows[id])
			}
			delete(rows, id) // a second dead copy is no row
		}
		for id := range seg.live {
			if !rows[id] {
				return fmt.Errorf("segment %d: live id %d is not a row", si, id)
			}
			if w, dup := where[id]; dup {
				return fmt.Errorf("id %d is live in segment %d and in %s", id, si, w)
			}
			where[id] = fmt.Sprintf("segment %d", si)
		}
	}
	return nil
}

// TestBackgroundFoldKeepsBase runs 40 memtables of insert/delete churn, with
// a few base rows deleted and upserted in each, over a 20k-row base through
// the background step (seal, then the policy's fold past CompactAt): the
// base is never rewritten, and after every step the segments' id sets hold
// (checkLiveSets). An explicit Compact then folds everything into one segment
// with no masked row left.
func TestBackgroundFoldKeepsBase(t *testing.T) {
	const baseRows, memRows, liveCap = 20000, 256, 1024
	rng := rand.New(rand.NewSource(40))
	pool := clustered(rng, baseRows+memRows, 64, 200, 6)
	o := oracle{}
	ids := make([]int, baseRows)
	for i := range ids {
		ids[i] = i
		o[i] = pool[i]
	}
	s := New(64, Options{MemtableMax: -1, CompactAt: 4})
	defer s.Close()
	if err := s.Bootstrap(buildFrozen(pool[:baseRows], ids, core.Options{})); err != nil {
		t.Fatal(err)
	}
	base := s.state.Load().segments[0]
	var inserted []int // live inserted ids, oldest first
	next := baseRows
	for m := 0; m < 40; m++ {
		for i := 0; i < memRows; i++ {
			c := pool[baseRows+rng.Intn(memRows)].Clone()
			c.FlipBit(rng.Intn(64))
			s.Insert(next, c)
			o[next] = c
			inserted = append(inserted, next)
			next++
			if len(inserted) > liveCap {
				s.Delete(inserted[0])
				delete(o, inserted[0])
				inserted = inserted[1:]
			}
		}
		victim, moved := rng.Intn(baseRows), rng.Intn(baseRows)
		if _, live := o[victim]; live {
			s.Delete(victim)
			delete(o, victim)
		}
		c := pool[rng.Intn(len(pool))]
		s.Insert(moved, c)
		o[moved] = c

		s.sealAndFold()
		if got := s.state.Load().segments[0]; got != base {
			t.Fatalf("memtable %d: the background fold rewrote the base", m)
		}
		if err := checkLiveSets(s); err != nil {
			t.Fatalf("memtable %d: %v", m, err)
		}
	}
	st := s.Stats()
	if st.Compactions < 5 || st.Segments > 5 {
		t.Fatalf("after 40 memtables: %+v", st)
	}
	checkAgainstOracle(t, s, o, rng, 64, 10)
	s.Compact()
	if st := s.Stats(); st.Segments != 1 || st.Tombstones != 0 || st.Len != len(o) {
		t.Fatalf("after Compact: %+v, oracle holds %d", st, len(o))
	}
	if err := checkLiveSets(s); err != nil {
		t.Fatalf("after Compact: %v", err)
	}
	checkAgainstOracle(t, s, o, rng, 64, 10)
}

// TestBaseRewriteThresholds pins the policy's two triggers: the background
// fold rewrites the base once a quarter of its rows are masked, or once the
// segments above it hold half as many rows as it does, and not before.
func TestBaseRewriteThresholds(t *testing.T) {
	const baseRows = 1000
	rng := rand.New(rand.NewSource(41))
	codes := clustered(rng, 2*baseRows, 64, 20, 4)
	setup := func() (*Shard, *segment) {
		s := New(64, Options{MemtableMax: -1, CompactAt: 1})
		t.Cleanup(s.Close)
		ids := make([]int, baseRows)
		for i := range ids {
			ids[i] = i
		}
		if err := s.Bootstrap(buildFrozen(codes[:baseRows], ids, core.Options{})); err != nil {
			t.Fatal(err)
		}
		return s, s.state.Load().segments[0]
	}
	seal := func(s *Shard, from, to int) {
		for id := from; id < to; id++ {
			s.Insert(id, codes[id])
		}
		s.sealAndFold()
	}
	t.Run("masked", func(t *testing.T) {
		s, base := setup()
		for id := 0; id < baseRows/baseMaskedDiv-1; id++ {
			s.Delete(id)
		}
		seal(s, baseRows, baseRows+10)
		seal(s, baseRows+10, baseRows+20)
		if s.state.Load().segments[0] != base {
			t.Fatal("base rewritten one masked row short of the share")
		}
		s.Delete(baseRows/baseMaskedDiv - 1)
		seal(s, baseRows+20, baseRows+30)
		if st := s.Stats(); st.Segments != 1 || st.Tombstones != 0 || st.Len != baseRows-baseRows/baseMaskedDiv+30 {
			t.Fatalf("a quarter masked did not fold the base: %+v", st)
		}
	})
	t.Run("upper", func(t *testing.T) {
		s, base := setup()
		half := baseRows / baseUpperDiv
		seal(s, baseRows, baseRows+half/2)
		seal(s, baseRows+half/2, baseRows+half-1)
		if segs := s.state.Load().segments; segs[0] != base || len(segs) != 2 {
			t.Fatalf("base rewritten one upper row short of half: %d segments", len(segs))
		}
		seal(s, baseRows+half-1, baseRows+half)
		if st := s.Stats(); st.Segments != 1 || st.Len != baseRows+half {
			t.Fatalf("an upper tier half the base did not fold it: %+v", st)
		}
	})
}

// TestMaskDuringFold: deletes and upserts of a fold's input ids that land
// between its snapshot and its swap are masked in the output. A delete hit
// that window when the epoch read right after it returned is still the
// pre-swap one and its id is a row of the output, so it was live at the
// snapshot; the fold is run again, over a fresh seal, until one has. After
// every fold the shard answers the oracle and its id sets hold.
func TestMaskDuringFold(t *testing.T) {
	const baseRows, sealRows = 20000, 2000
	rng := rand.New(rand.NewSource(44))
	pool := clustered(rng, baseRows+sealRows, 64, 200, 6)
	o := oracle{}
	ids := make([]int, baseRows)
	for i := range ids {
		ids[i] = i
		o[i] = pool[i]
	}
	s := New(64, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	if err := s.Bootstrap(buildFrozen(pool[:baseRows], ids, core.Options{})); err != nil {
		t.Fatal(err)
	}
	next := baseRows
	hit := false
	for try := 0; try < 100 && !hit; try++ {
		for i := 0; i < sealRows; i++ {
			c := pool[rng.Intn(len(pool))]
			s.Insert(next, c)
			o[next] = c
			next++
		}
		s.Seal(false)
		victims := make([]int, 0, len(o))
		for id := range o {
			victims = append(victims, id)
		}
		slices.Sort(victims)
		rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })

		epoch := s.Stats().Epoch
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Compact()
		}()
		var window []int // deleted before the swap, by the epoch
	mutate:
		for i, id := range victims {
			select {
			case <-done:
				break mutate
			default:
			}
			if i%2 == 0 {
				s.Delete(id)
				delete(o, id)
				if s.Stats().Epoch == epoch {
					window = append(window, id)
				}
			} else {
				c := pool[rng.Intn(len(pool))]
				s.Insert(id, c)
				o[id] = c
			}
			time.Sleep(20 * time.Microsecond) // spread the writes over the fold
		}
		<-done

		segs := s.state.Load().segments
		if len(segs) != 1 || s.Stats().Epoch != epoch+1 {
			t.Fatalf("fold %d: %d segments at epoch %d, from %d", try, len(segs), s.Stats().Epoch, epoch)
		}
		rows := map[int]bool{}
		segs[0].idx.Tuples(func(id int, _ bitvec.Code) { rows[id] = true })
		for _, id := range window {
			hit = hit || rows[id]
		}
		if err := checkLiveSets(s); err != nil {
			t.Fatalf("fold %d: %v", try, err)
		}
		checkAgainstOracle(t, s, o, rng, 64, 10)
	}
	if !hit {
		t.Fatal("no delete landed between a fold's snapshot and its swap in 100 folds")
	}
}

// TestShardSearchAllocs pins the steady state of the planned read path: a
// select over a planned base, two planned seals and a memtable allocates
// nothing once each segment's free list holds a searcher set.
func TestShardSearchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	codes := clustered(rng, 6000, 64, 50, 6)
	s := New(64, Options{MemtableMax: -1, CompactAt: -1})
	reg := s.Obs()
	defer s.Close()
	ids := make([]int, 4000)
	for i := range ids {
		ids[i] = i
	}
	if err := s.Bootstrap(buildFrozen(codes[:4000], ids, core.Options{})); err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, s)
	if s.state.Load().segments[0].plan.Load() == nil {
		t.Fatal("lsm.unplanned_segments is 0 with the bootstrapped base unplanned")
	}
	for id := 4000; id < len(codes); id++ {
		s.Insert(id, codes[id])
		if id == 4700 || id == 5400 {
			s.Seal(false)
		}
	}
	if st := s.Stats(); st.Segments != 3 || st.MemtableSize == 0 {
		t.Fatalf("layering: %+v", st)
	}
	if g := reg.Gauge("lsm.unplanned_segments").Value(); g != 0 {
		t.Fatalf("%d segments unplanned after two seals", g)
	}
	queries := make([]bitvec.Code, 16)
	for i := range queries {
		queries[i] = codes[rng.Intn(len(codes))].Clone()
		queries[i].FlipBit(rng.Intn(64))
	}
	var stats core.SearchStats
	out := make([]int, 0, 1<<12)
	for _, q := range queries {
		out = s.SearchInto(q, 3, planner.UsePlan, out[:0], &stats)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		out = s.SearchInto(queries[i%len(queries)], 3, planner.UsePlan, out[:0], &stats)
		i++
	})
	if allocs != 0 {
		t.Fatalf("a steady-state select over planned segments made %.1f allocations, want 0", allocs)
	}
	if reg.Counter("lsm.search_ha").Value() != 0 || reg.Counter("lsm.search_mih").Value() == 0 {
		t.Fatalf("segment searches by engine: ha %d, mih %d, scan %d", reg.Counter("lsm.search_ha").Value(),
			reg.Counter("lsm.search_mih").Value(), reg.Counter("lsm.search_scan").Value())
	}
}

// TestSegmentFreeListKeepsEverySearcher: a segment keeps every searcher set
// released to it, so searches in flight past GOMAXPROCS at once — a server
// admitting more searchers than it has procs — reuse their searchers' walk
// scratch from one round to the next instead of building it again.
func TestSegmentFreeListKeepsEverySearcher(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	codes := clustered(rng, 5000, 64, 50, 5)
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = i
	}
	s := Frozen(buildFrozen(codes, ids, core.Options{}))
	defer s.Close()
	waitPlanned(t, s)
	seg := s.state.Load().segments[0]
	held := make([]*searchers, 2*runtime.GOMAXPROCS(0)+1)
	out := make([]int, 0, len(codes))
	round := func() {
		for _, st := range strategies {
			for i := range held {
				var sr *core.Searcher
				held[i], sr = seg.searcher(st)
				out = sr.SearchAppend(out[:0], codes[i], 6)
			}
			for _, set := range held {
				seg.release(set)
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("%d searches in flight at once allocate %.0f times a round", len(held), allocs)
	}
}

// TestRetiredSegmentIsCollectable: once a compaction has retired a segment
// and the searches that used it have returned, nothing holds it — not its
// searchers' free list, not its plan — so one GC reclaims the segment, its
// arena and its MIH tables. A sync.Pool of searchers would stay registered
// with the runtime and keep them for a second cycle.
func TestRetiredSegmentIsCollectable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	codes := clustered(rng, 3000, 64, 30, 5)
	s := New(64, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	for id, c := range codes {
		s.Insert(id, c)
		if id == 1499 {
			s.Seal(false)
		}
	}
	s.Seal(false)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(codes); i += 97 {
				s.Search(codes[i], 3)
			}
		}(w)
	}
	wg.Wait()
	seg, idx, pl := retiring(t, s)
	s.Compact()
	runtime.GC()
	if seg.Value() != nil || idx.Value() != nil || pl.Value() != nil {
		t.Fatalf("after one GC a retired segment is still live: segment %v, arena %v, plan %v",
			seg.Value() != nil, idx.Value() != nil, pl.Value() != nil)
	}
}

// retiring returns weak pointers to the top segment of s, its arena and its
// plan, after searching it once through every engine, so that its free list
// holds a searcher set over each.
func retiring(t *testing.T, s *Shard) (weak.Pointer[segment], weak.Pointer[core.FrozenIndex], weak.Pointer[planner.Planner]) {
	segs := s.state.Load().segments
	seg := segs[len(segs)-1]
	pl := seg.plan.Load()
	if pl == nil {
		t.Fatal("the sealed segment is unplanned")
	}
	q := seg.idx.Groups().Code(0)
	s.mu.RLock()
	for _, st := range strategies {
		var stats core.SearchStats
		s.searchSegment(seg, st, q, 2, nil, &stats)
	}
	s.mu.RUnlock()
	return weak.Make(seg), weak.Make(seg.idx), weak.Make(pl)
}

// frozenFixture is a snapshot of 3000 clustered 64-bit codes on disk, with
// its index and the oracle over it.
func frozenFixture(t *testing.T) (codes []bitvec.Code, ids []int, o oracle, idx *core.FrozenIndex, path string) {
	t.Helper()
	rng := rand.New(rand.NewSource(38))
	codes = clustered(rng, 3000, 64, 30, 5)
	ids = make([]int, len(codes))
	o = oracle{}
	for i := range ids {
		ids[i] = 7*i + 3
		o[ids[i]] = codes[i]
	}
	idx = buildFrozen(codes, ids, core.Options{})
	path = filepath.Join(t.TempDir(), "shard.hasn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteSnapshot(f, wire.SnapshotMeta{Parts: 1, Length: 64}, idx); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return codes, ids, o, idx, path
}

// snapshotLoads are the two ways a server loads a snapshot.
var snapshotLoads = []struct {
	name string
	read func(string) (wire.SnapshotMeta, *core.FrozenIndex, error)
}{{"mapped", wire.MapSnapshotFile}, {"eager", wire.ReadSnapshotFile}}

// TestFrozenServesBeforeThePlan: Frozen returns before its segment is
// planned, and the shard answers exactly from the first search. With the
// plan held off — the test takes structMu before the background planner
// does — every pin answers the oracle at every threshold through HA, over a
// mapped and an eager load of one snapshot; once released the plan lands,
// lsm.unplanned_segments reads 0, its phases are timed, and each pin runs
// its own engine.
func TestFrozenServesBeforeThePlan(t *testing.T) {
	codes, _, o, _, path := frozenFixture(t)
	q := codes[17].Clone()
	q.FlipBit(9)
	for _, load := range snapshotLoads {
		_, fz, err := load.read(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fz.Close()
		s := heldFrozen(t, fz)
		reg := s.Obs()
		if g := reg.Gauge("lsm.unplanned_segments").Value(); g != 1 {
			t.Fatalf("%s: lsm.unplanned_segments = %d with the plan held off", load.name, g)
		}
		checkPins(t, s, o, q, load.name+", held")
		s.structMu.Unlock()
		waitPlanned(t, s)
		if reg.Gauge("load.mih_build_ns").Value() <= 0 || reg.Gauge("load.plan_ns").Value() <= 0 {
			t.Fatalf("%s: the plan landed untimed", load.name)
		}
		checkPins(t, s, o, q, load.name+", planned")
		s.Close()
	}
}

// heldFrozen returns Frozen(fz) with its structMu held before the
// background planner took it, so the segment stays unplanned until the
// caller unlocks. The planner goroutine seldom runs before Frozen's caller
// does; a shard it got to first is closed and the load tried again.
func heldFrozen(t *testing.T, fz *core.FrozenIndex) *Shard {
	t.Helper()
	for try := 0; try < 100; try++ {
		s := Frozen(fz)
		if s.structMu.TryLock() {
			if s.state.Load().segments[0].plan.Load() == nil {
				return s
			}
			s.structMu.Unlock()
		}
		s.Close()
	}
	t.Fatal("the background planner took structMu first 100 times")
	return nil
}

// TestFrozenShard: a read-only shard serves its index as one segment.
// Planned over a mapped and an eager load of one snapshot, it counts the
// same plan at every threshold, every pin answers the oracle, and the aux
// gauge is MIH's key tables to the byte (no slab carries spare capacity) —
// over the mapped arena all the heap the shard adds. It takes no mutation
// and no Bootstrap.
func TestFrozenShard(t *testing.T) {
	codes, ids, o, idx, path := frozenFixture(t)
	q := codes[17].Clone()
	q.FlipBit(9)
	var plans []planner.Plan
	var ro *Shard
	for _, load := range snapshotLoads {
		_, fz, err := load.read(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fz.Close()
		s := Frozen(fz)
		reg := s.Obs()
		defer s.Close()
		ro = s
		waitPlanned(t, s)
		if s.Len() != len(codes) {
			t.Fatalf("%s: Len %d", load.name, s.Len())
		}
		// The aux gauge is what MIH's tables hold, by capacity; it equals
		// what they use, by length, only if no slab carries spare capacity.
		// Over a mapped arena it is all the heap the shard adds.
		pl := s.state.Load().segments[0].plan.Load()
		m := pl.Engines().MIH.(*mih.Index)
		used := int64(m.SizeBytes() - fz.Groups().SizeBytes())
		aux, heap := reg.Gauge("index.aux_heap_bytes").Value(), reg.Gauge("index.heap_bytes").Value()
		if aux != used || heap != int64(fz.HeapBytes())+used || (fz.MappedBytes() > 0 && heap != aux) {
			t.Fatalf("%s: index.aux_heap_bytes %d, index.heap_bytes %d: the tables use %d bytes over a %d-byte heap arena",
				load.name, aux, heap, used, fz.HeapBytes())
		}
		if reg.Gauge("load.mih_build_ns").Value() <= 0 || reg.Gauge("load.plan_ns").Value() <= 0 {
			t.Fatalf("%s: Frozen did not time its planning", load.name)
		}
		for h := 0; h <= 64; h++ {
			if len(plans) <= h {
				plans = append(plans, pl.Plan(h))
			} else if pl.Plan(h) != plans[h] {
				t.Fatalf("%s, h=%d: plan %+v, the mapped shard's %+v", load.name, h, pl.Plan(h), plans[h])
			}
			want := o.search(q, h)
			for _, pin := range []planner.Strategy{planner.UsePlan, planner.UseHA, planner.UseMIH, planner.UseScan} {
				var stats core.SearchStats
				if got := s.SearchInto(q, h, pin, nil, &stats); !equalIDs(got, want) {
					t.Fatalf("%s: pin %s at h=%d: %d ids, the oracle %d", load.name, pin, h, len(got), len(want))
				}
			}
		}
	}

	if err := ro.Bootstrap(idx); err == nil {
		t.Fatal("a read-only shard took a Bootstrap")
	}
	epoch := ro.Stats().Epoch
	for name, mutate := range map[string]func(){
		"Insert": func() { ro.Insert(1, codes[0]) },
		"Delete": func() { ro.Delete(ids[0]) },
		"Seal":   func() { ro.Seal(false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a read-only shard did not panic", name)
				}
			}()
			mutate()
		}()
	}
	if ro.Stats().Epoch != epoch || ro.Len() != len(codes) {
		t.Fatal("a refused mutation changed the read-only shard")
	}
}
