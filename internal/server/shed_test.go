package server

import (
	"math/rand"
	"testing"
	"time"

	"haindex/internal/wire"
)

// TestServerShedsPastBudget: with the admission pool drained, a search that
// waits past ShedAfter is answered MsgShed (with the wait reported and the
// shed counter moving), and serving recovers once a ticket returns.
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
	if s.Obs().Counter("sheds").Value() != 1 {
		t.Fatal("shed counter did not move")
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

// TestStatsWorkIsHistogramSums: the work totals Stats reports are the sums
// of the per-query search.* histograms, after mixed select and top-k traffic
// with a shed request among it, and those histograms hold one sample for
// every query the shard ran — none for the shed one.
func TestStatsWorkIsHistogramSums(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	meta, idx, codes := testShard(t, rng, 500, 16, 1, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 2, ShedAfter: 5 * time.Millisecond})
	c := dialTest(t, s)
	c.hello()
	ran := int64(0)
	for i, hint := range []int{wire.EngineAuto, wire.EngineHA, wire.EngineMIH, wire.EngineScan} {
		req := wire.SearchReq{H: 1 + i, Engine: hint, Queries: codes[4*i : 4*i+4]}.Append(nil)
		if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
			t.Fatalf("search with hint %s answered %s", hintName(hint), rt)
		}
		ran += 4
	}
	if rt, _ := c.roundTrip(wire.MsgTopK, wire.TopKReq{K: 5, Queries: codes[20:23]}.Append(nil)); rt != wire.MsgTopKOK {
		t.Fatalf("top-k answered %s", rt)
	}
	ran += 3
	held := []*searcherSet{<-s.pool, <-s.pool}
	if rt, _ := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: 2, Queries: codes[:3]}.Append(nil)); rt != wire.MsgShed {
		t.Fatalf("search on a drained pool answered %s", rt)
	}
	for _, set := range held {
		s.pool <- set
	}
	st := s.Stats()
	for _, w := range []struct {
		name  string
		total int64
	}{
		{"search.dist_comps", st.DistanceComputations},
		{"search.nodes_visited", st.NodesVisited},
		{"search.leaves_checked", st.LeavesChecked},
	} {
		h := s.Obs().Histogram(w.name).Snapshot()
		if w.total != h.Sum || h.Count != ran {
			t.Fatalf("Stats reports %d for %s, whose histogram sums to %d over %d samples (%d queries ran)", w.total, w.name, h.Sum, h.Count, ran)
		}
	}
	if st.DistanceComputations == 0 || st.Queries+st.TopKQueries != ran+3 {
		t.Fatalf("stats after %d queries ran and 3 were shed: %+v", ran, st)
	}
}
