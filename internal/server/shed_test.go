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
