package server

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/lsm"
	"haindex/internal/wire"
)

// TestServerResultCache: with CacheEntries set, a repeated search is
// answered from the cache — byte-identically, with the hit/miss counters
// moving, and without consuming an admission ticket (asserted by draining
// the pool before the repeat).
func TestServerResultCache(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	meta, idx, codes := testShard(t, rng, 600, 32, 2, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 1, CacheEntries: 1024})
	c := dialTest(t, s)
	c.hello()

	queries := make([]bitvec.Code, 20)
	for i := range queries {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(32))
		queries[i] = q
	}
	req := wire.SearchReq{H: 3, Queries: queries}.Append(nil)
	rt, first := c.roundTrip(wire.MsgSearch, req)
	if rt != wire.MsgSearchOK {
		t.Fatalf("cold search answered %s", rt)
	}
	if m := s.Obs().Counter("qcache.misses").Value(); m != 20 {
		t.Fatalf("cold pass recorded %d misses, want 20", m)
	}

	// Drain the only admission ticket: a fully cached request must still be
	// answered, because cache hits bypass admission entirely.
	ticket := <-s.pool
	done := make(chan struct{})
	var warm []byte
	go func() {
		defer close(done)
		rt, warm = c.roundTrip(wire.MsgSearch, req)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cached search blocked on a drained admission pool")
	}
	s.pool <- ticket
	if rt != wire.MsgSearchOK {
		t.Fatalf("warm search answered %s", rt)
	}
	if !bytes.Equal(first, warm) {
		t.Fatal("cached answer differs from computed answer")
	}
	if h := s.Obs().Counter("qcache.hits").Value(); h != 20 {
		t.Fatalf("warm pass recorded %d hits, want 20", h)
	}
}

// TestServerCacheInvalidationOnMutation: on a mutable server the cache is
// keyed by lsm.Shard.Version, so an insert makes every pre-insert entry
// unreachable — the repeat search sees the new tuple, never a stale hit.
func TestServerCacheInvalidationOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	meta, _, _ := testShard(t, rng, 100, 16, 1, 0)
	sh := lsm.New(16, lsm.Options{})
	s, err := NewMutable(meta, sh, Options{Searchers: 2, CacheEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := dialTest(t, s)
	c.hello()

	q := bitvec.Rand(rng, 16)
	req := wire.SearchReq{H: 0, Queries: []bitvec.Code{q}}.Append(nil)
	rt, resp := c.roundTrip(wire.MsgSearch, req)
	if rt != wire.MsgSearchOK {
		t.Fatalf("search answered %s", rt)
	}
	parsed, err := wire.ParseSearchResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.IDs[0]) != 0 {
		t.Fatalf("empty shard returned ids %v", parsed.IDs[0])
	}
	// Warm the (empty) entry, then insert the exact code searched for.
	c.roundTrip(wire.MsgSearch, req)
	if s.Obs().Counter("qcache.hits").Value() == 0 {
		t.Fatal("repeat search on an unchanged shard did not hit the cache")
	}
	ins := wire.InsertReq{Length: 16, IDs: []int{7}, Codes: []bitvec.Code{q}}.Append(nil)
	if rt, _ := c.roundTrip(wire.MsgInsert, ins); rt != wire.MsgInsertOK {
		t.Fatalf("insert answered %s", rt)
	}
	rt, resp = c.roundTrip(wire.MsgSearch, req)
	if rt != wire.MsgSearchOK {
		t.Fatalf("post-insert search answered %s", rt)
	}
	parsed, err = wire.ParseSearchResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.IDs[0]) != 1 || parsed.IDs[0][0] != 7 {
		t.Fatalf("post-insert search served stale cache: ids %v, want [7]", parsed.IDs[0])
	}
}

// TestServerShedsPastBudget: with the admission pool drained, a v5 search
// that waits past ShedAfter is answered MsgShed (with the wait reported and
// the per-priority counters moving), and serving recovers once a ticket
// returns. A batch-priority request sheds on its halved budget too.
func TestServerShedsPastBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	meta, idx, codes := testShard(t, rng, 200, 16, 1, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 1, ShedAfter: 10 * time.Millisecond})
	c := dialTest(t, s)
	c.hello()

	ticket := <-s.pool
	req := wire.SearchReq{H: 2, Queries: codes[:3]}.Append(nil)
	rt, resp := c.roundTrip(wire.MsgSearch, req)
	if rt != wire.MsgShed {
		t.Fatalf("drained pool answered %s, want %s", rt, wire.MsgShed)
	}
	shed, err := wire.ParseShedResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if shed.WaitNs < (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("shed reported %dns waited, want >= budget", shed.WaitNs)
	}
	if s.Obs().Counter("sheds").Value() != 1 || s.Obs().Counter("shed.normal").Value() != 1 {
		t.Fatal("shed counters did not move")
	}

	// Priority rides the wire: a batch-class request sheds (on half the
	// budget) and is counted under its own class.
	breq := wire.SearchReq{H: 2, Priority: wire.PriorityBatch, Queries: codes[:3]}.Append(nil)
	if rt, _ := c.roundTrip(wire.MsgSearch, breq); rt != wire.MsgShed {
		t.Fatalf("batch-priority search answered %s, want %s", rt, wire.MsgShed)
	}
	if s.Obs().Counter("shed.batch").Value() != 1 {
		t.Fatal("shed.batch did not move")
	}

	// Top-k requests respect the same budget.
	treq := wire.TopKReq{K: 2, Queries: codes[:1]}.Append(nil)
	if rt, _ := c.roundTrip(wire.MsgTopK, treq); rt != wire.MsgShed {
		t.Fatalf("top-k on drained pool answered %s, want %s", rt, wire.MsgShed)
	}

	s.pool <- ticket
	if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
		t.Fatalf("search after ticket returned answered %s", rt)
	}
}

// TestServerShedFaultAndGating: a planned ShedRequest fault answers with
// MsgShed deterministically.
func TestServerShedFaultAndGating(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	meta, idx, codes := testShard(t, rng, 200, 16, 1, 0)
	plan := NewFaultPlan().ShedRequest(0)
	s := startTestServer(t, meta, idx, Options{Searchers: 2, Faults: plan})

	c := dialTest(t, s)
	c.hello()
	req := wire.SearchReq{H: 2, Queries: codes[:2]}.Append(nil)
	rt, resp := c.roundTrip(wire.MsgSearch, req)
	if rt != wire.MsgShed {
		t.Fatalf("planned shed answered %s", rt)
	}
	if _, err := wire.ParseShedResp(resp); err != nil {
		t.Fatal(err)
	}
	if s.Obs().Counter("faults_injected").Value() == 0 {
		t.Fatal("fault counter did not move")
	}

}

// TestServerStatsWarmthVersioned: the stats snapshot carries the cache-warmth
// and admission-load fields.
func TestServerStatsWarmthVersioned(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	meta, idx, codes := testShard(t, rng, 200, 16, 1, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 2, CacheEntries: 128})

	c := dialTest(t, s)
	c.hello()
	req := wire.SearchReq{H: 2, Queries: codes[:4]}.Append(nil)
	for i := 0; i < 2; i++ { // second pass hits the result cache
		if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
			t.Fatalf("search %d failed", i)
		}
	}
	rt, resp := c.roundTrip(wire.MsgStats, nil)
	if rt != wire.MsgStatsOK {
		t.Fatalf("stats answered %s", rt)
	}
	st, err := wire.ParseStatsResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheEntries == 0 || st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("stats carry no cache warmth: %+v", st)
	}
	if st.PoolIdle != 2 {
		t.Fatalf("PoolIdle = %d, want the 2 idle searchers", st.PoolIdle)
	}
}
