package server

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/lsm"
	"haindex/internal/mih"
	"haindex/internal/planner"
	"haindex/internal/wire"
)

// hintName names a wire engine hint by the strategy the server pins for it.
func hintName(hint int) string { return planner.Strategy(hint - wire.EngineHA).String() }

// clusteredArena writes a one-partition v4 (mmap-native) snapshot of n
// clustered codes — hashed-data-like sharing, ids distinct from positions —
// and returns its path with the codes and ids behind it.
func clusteredArena(t testing.TB, rng *rand.Rand, n, bits, perCluster int) (string, wire.SnapshotMeta, []bitvec.Code, []int) {
	t.Helper()
	codes := make([]bitvec.Code, 0, n)
	for len(codes) < n {
		center := bitvec.Rand(rng, bits)
		for i := 0; i < perCluster && len(codes) < n; i++ {
			c := center.Clone()
			for f := 0; f < 3; f++ {
				c.FlipBit(rng.Intn(bits))
			}
			codes = append(codes, c)
		}
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 3*i + 1
	}
	meta := wire.SnapshotMeta{Part: 0, Parts: 1, Length: bits}
	path := filepath.Join(t.TempDir(), "arena.hasn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	frozen := buildFrozen(codes, ids)
	if err := wire.WriteSnapshot(f, meta, frozen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, meta, codes, ids
}

// TestEnginesByteIdenticalEveryThreshold: every (shard, request hint) pair
// a server answers — the planner's pick and each of HA, MIH and the scan
// pinned on an immutable shard, eager and mmap'd, and all four on a mutable
// shard whose inserts, deletes and upserts a seal has planned, beside a
// memtable and a tombstone written since — answers every threshold 0..L
// over a 20k-code clustered shard with the same bytes, and those bytes are
// the brute oracle's answer over the shard's live rows. MIH and the scan
// read the served arena itself, so this also proves the aliasing engines
// see exactly what the HA walk sees.
func TestEnginesByteIdenticalEveryThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, bits = 20000, 64
	path, meta, codes, ids := clusteredArena(t, rng, n, bits, 500)
	queries := []bitvec.Code{codes[rng.Intn(n)].Clone(), bitvec.Rand(rng, bits)}
	queries[0].FlipBit(7)
	queries[0].FlipBit(50)

	// oracle encodes, per threshold, the brute answer over live.
	oracle := func(live map[int]bitvec.Code) [][]byte {
		want := make([][]byte, bits+1)
		for h := range want {
			resp := wire.SearchResp{IDs: make([][]int, len(queries))}
			for qi, q := range queries {
				for id, c := range live {
					if _, ok := q.DistanceWithin(c, h); ok {
						resp.IDs[qi] = append(resp.IDs[qi], id)
					}
				}
				sort.Ints(resp.IDs[qi])
			}
			want[h] = resp.Append(nil)
		}
		return want
	}
	live := make(map[int]bitvec.Code, n)
	for i, c := range codes {
		live[ids[i]] = c
	}
	frozenWant := oracle(live)

	// mutable bootstraps a shard from the snapshot and churns it: new rows
	// near the first query, deletes and upserts of snapshot rows, a seal that
	// plans both segments, then a memtable row and a tombstone past it.
	mutable := func() *Server {
		_, fz, err := wire.ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sh := lsm.New(bits, lsm.Options{MemtableMax: -1, CompactAt: -1})
		if err := sh.Bootstrap(fz); err != nil {
			t.Fatal(err)
		}
		next := 3 * n
		write := func(rows int) {
			for i := 0; i < rows; i++ {
				c := queries[0].Clone()
				c.FlipBit(rng.Intn(bits))
				c.FlipBit(rng.Intn(bits))
				sh.Insert(next, c)
				live[next] = c
				next++
				victim := ids[rng.Intn(n)]
				if i%2 == 0 {
					sh.Delete(victim)
					delete(live, victim)
				} else {
					c := codes[rng.Intn(n)]
					sh.Insert(victim, c)
					live[victim] = c
				}
			}
		}
		write(200)
		sh.Seal(false)
		write(2)
		s, err := NewMutable(meta, sh, Options{Searchers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	allHints := []int{wire.EngineAuto, wire.EngineHA, wire.EngineMIH, wire.EngineScan}
	modes := []struct {
		name  string
		hints []int
		load  func() *Server
	}{
		{"auto", allHints, nil},
		{"mutable", allHints, mutable},
	}
	for _, m := range modes {
		for _, mmap := range []bool{false, true} {
			var s *Server
			want := frozenWant
			if m.load != nil {
				if mmap {
					continue // a mutable shard decodes its snapshot onto the heap
				}
				s = m.load()
				want = oracle(live)
			} else {
				var err error
				if s, err = LoadSnapshotFile(path, Options{Engine: m.name, Mmap: mmap, Searchers: 2}); err != nil {
					t.Fatal(err)
				}
				waitPlanned(t, s.Obs()) // a pinned MIH or scan runs only on a planned segment
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			c := dialTest(t, s)
			c.hello()
			for _, hint := range m.hints {
				for h := 0; h <= bits; h++ {
					rt, resp := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: h, Engine: hint, Queries: queries}.Append(nil))
					if rt != wire.MsgSearchOK {
						t.Fatalf("%s hint %s mmap=%v h=%d answered %s", m.name, hintName(hint), mmap, h, rt)
					}
					if !bytes.Equal(resp, want[h]) {
						t.Fatalf("%s hint %s mmap=%v h=%d: answer differs from the oracle's", m.name, hintName(hint), mmap, h)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCloseMappedServerWithRequestsInFlight: MIH and the scan alias the
// mapping the server owns, so Close must have every searcher stopped before
// it unmaps. Clients hammer all three engines while the server closes; each
// sees answers and then a clean connection error — never a fault — and the
// mapping is gone when Close returns. Run under -race by make test-race.
func TestCloseMappedServerWithRequestsInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	path, _, codes, _ := clusteredArena(t, rng, 6000, 64, 300)
	s, err := LoadSnapshotFile(path, Options{Engine: "auto", Mmap: true, Searchers: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, s.Obs())
	fz := s.owned
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	const clients = 6
	var wg sync.WaitGroup
	served := make(chan struct{}, clients) // one token per client once it has an answer
	for ci := 0; ci < clients; ci++ {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			br := bufio.NewReader(conn)
			send := func(typ wire.MsgType, payload []byte) (wire.MsgType, error) {
				if err := wire.WriteFrame(conn, typ, payload); err != nil {
					return 0, err
				}
				rt, _, err := wire.ReadFrame(br)
				return rt, err
			}
			if rt, err := send(wire.MsgHello, wire.Hello{Version: wire.Version}.Append(nil)); err != nil || rt != wire.MsgHelloOK {
				t.Errorf("client %d: handshake: %s, %v", ci, rt, err)
				return
			}
			engines := []int{wire.EngineAuto, wire.EngineHA, wire.EngineMIH, wire.EngineScan}
			for i := 0; ; i++ {
				// Wide thresholds keep the MIH key-run walk and the scan on the
				// mapped slabs for most of each request.
				req := wire.SearchReq{H: 20 + 11*(i%4), Engine: engines[(ci+i)%4], Queries: codes[i%50 : i%50+4]}
				rt, err := send(wire.MsgSearch, req.Append(nil))
				if err != nil {
					return // the server closed the connection: the clean outcome
				}
				if rt != wire.MsgSearchOK {
					t.Errorf("client %d: search answered %s", ci, rt)
					return
				}
				if i == 0 {
					served <- struct{}{}
				}
			}
		}(ci)
	}
	for ci := 0; ci < clients; ci++ {
		<-served
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fz.MappedBytes() != 0 {
		t.Fatal("Close returned with the arena still mapped")
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseMappedServerWhilePlanning: a loaded shard is planned in the
// background, by MIH and the planner reading the mapped arena, so Close must
// wait the plan out before it unmaps. Closed the moment LoadSnapshotFile
// returns, 50 times over, a server never faults on the released mapping, and
// when Close returns the plan has landed — lsm.unplanned_segments reads 0 and
// both phases are timed — and the arena is unmapped. Run under -race by make
// test-race.
func TestCloseMappedServerWhilePlanning(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	path, _, _, _ := clusteredArena(t, rng, 6000, 64, 300)
	closedWhilePlanning := 0
	for round := 0; round < 50; round++ {
		s, err := LoadSnapshotFile(path, Options{Mmap: true})
		if err != nil {
			t.Fatal(err)
		}
		fz := s.owned
		if s.Obs().Gauge("lsm.unplanned_segments").Value() != 0 {
			closedWhilePlanning++
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		g := s.Obs().Snapshot().Gauges
		if g["lsm.unplanned_segments"] != 0 || g["load.mih_build_ns"] <= 0 || g["load.plan_ns"] <= 0 {
			t.Fatalf("round %d: Close returned before the plan landed: %v", round, g)
		}
		if fz.MappedBytes() != 0 {
			t.Fatalf("round %d: Close returned with the arena still mapped", round)
		}
	}
	if closedWhilePlanning == 0 {
		t.Fatal("every plan landed before Close was called: the test closed no server mid-plan")
	}
}

// TestAuxEnginesShareTheArena covers what every load builds once its plan
// lands: over an mmap'd shard the only heap it adds is MIH's key tables
// (index.heap_bytes == index.aux_heap_bytes, well under an owning MIH); the
// mapped and the eager load route every threshold to the same engine; the
// load phases are on the registry — the map inside load.total_ns, which
// LoadSnapshotFile sets on return, and the plan's two phases once it lands;
// and an index New is handed in memory shares the same way. That the two
// loads count the same plan table, and that the gauge is the tables' bytes
// exactly on each, is lsm's TestFrozenShard.
func TestAuxEnginesShareTheArena(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	path, meta, codes, ids := clusteredArena(t, rng, 3000, 64, 200)
	owning, err := mih.Build(codes, ids, mih.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var routes []string
	for _, mmap := range []bool{true, false} {
		s, err := LoadSnapshotFile(path, Options{Engine: "auto", Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		g := s.Obs().Snapshot().Gauges
		if g["load.map_ns"] <= 0 || g["load.map_ns"] > g["load.total_ns"] {
			t.Fatalf("mmap=%v: load.map_ns %d is not inside load.total_ns %d", mmap, g["load.map_ns"], g["load.total_ns"])
		}
		waitPlanned(t, s.Obs())
		g = s.Obs().Snapshot().Gauges
		if s.owned.MappedBytes() > 0 { // zero-copy path available on this platform
			aux := g["index.aux_heap_bytes"]
			if aux <= 0 || aux != g["index.heap_bytes"] || aux >= int64(owning.HeapBytes()) {
				t.Fatalf("mmap=%v: heap=%d aux=%d over a mapped shard (an owning MIH is %d)",
					mmap, g["index.heap_bytes"], aux, owning.HeapBytes())
			}
		}
		if g["load.mih_build_ns"] <= 0 || g["load.plan_ns"] <= 0 {
			t.Fatalf("mmap=%v: the plan landed with load.mih_build_ns %d, load.plan_ns %d", mmap, g["load.mih_build_ns"], g["load.plan_ns"])
		}
		if got := routesByThreshold(s, codes[5]); routes == nil {
			routes = got
		} else if !slices.Equal(got, routes) {
			t.Fatalf("mmap=%v: routes %v by threshold, the mapped shard's %v", mmap, got, routes)
		}
		s.Close()
	}

	// An index built in memory and handed to New: the engines alias its
	// arena like a loaded one's.
	fz := buildFrozen(codes, ids)
	s, err := New(meta, fz, Options{Engine: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, s.Obs())
	if g := s.Obs().Snapshot().Gauges; g["index.heap_bytes"] != int64(fz.HeapBytes())+g["index.aux_heap_bytes"] ||
		g["index.aux_heap_bytes"] >= int64(owning.HeapBytes()) {
		t.Fatalf("in-memory index: heap=%d aux=%d (an owning MIH is %d)",
			g["index.heap_bytes"], g["index.aux_heap_bytes"], owning.HeapBytes())
	}
	var stats core.SearchStats
	want := s.shard.SearchInto(codes[5], 6, planner.UseHA, nil, &stats)
	got := s.shard.SearchInto(codes[5], 6, planner.UseMIH, nil, &stats)
	sort.Ints(want)
	sort.Ints(got)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("MIH over an in-memory index: %d ids, HA's %d", len(got), len(want))
	}
	s.Close()
}

// routesByThreshold searches q through s's shard once at every threshold
// and names the engine each search ran on, read off the lsm.search_*
// counters.
func routesByThreshold(s *Server, q bitvec.Code) []string {
	var routes []string
	seen := map[string]int64{}
	for h := 0; h <= q.Len(); h++ {
		s.shard.Search(q, h)
		for _, name := range []string{"ha", "mih", "scan"} {
			if n := s.Obs().Counter("lsm.search_" + name).Value(); n != seen[name] {
				routes = append(routes, name)
				seen[name] = n
			}
		}
	}
	return routes
}

// TestReadOnlyLoadWalksNoIDs: wrapping a frozen index as a read-only shard
// costs the same allocations at 20k and at 40k 64-bit codes, beyond those of
// its plan — MIH, which splits both sizes into the same 4 tables of 16 bits,
// and the planner's sample probes, whose walk scratch grows with the data —
// so the load builds no per-id set, as Bootstrap does for a mutable shard.
// The collector is off while it counts: a GC cycle adds allocations of its
// own to whichever run it lands in.
func TestReadOnlyLoadWalksNoIDs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		meta, idx, _ := testShard(t, rand.New(rand.NewSource(int64(n))), n, 64, 1, 0)
		load := testing.AllocsPerRun(5, func() {
			s, err := New(meta, idx, Options{Searchers: 2})
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
		view := idx.Groups()
		plan := testing.AllocsPerRun(5, func() {
			m, err := mih.FromGroups(view, mih.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := planner.New(planner.Engines{HA: idx, MIH: m}, planner.Options{Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
		return load - plan
	}
	if small, large := allocs(20000), allocs(40000); small != large {
		t.Fatalf("a read-only load allocates %.0f times beyond its plan at 20k codes, %.0f at 40k", small, large)
	}
}
