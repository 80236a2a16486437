package server

import (
	"bufio"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/wire"
)

// countingConn counts the Write calls — on a TCP connection, the write
// syscalls — made through it, and remembers the longest.
type countingConn struct {
	net.Conn
	writes  atomic.Int64
	longest atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if n := int64(len(p)); n > c.longest.Load() {
		c.longest.Store(n)
	}
	return c.Conn.Write(p)
}

// TestServerOneWritePerReply: every reply frame — handshake, search, stats,
// error, and a search reply several times the size of any buffer the server
// could be writing through — is exactly one Write on the connection.
func TestServerOneWritePerReply(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	meta, idx, codes := testShard(t, rng, 3000, 16, 1, 0)
	s, err := New(meta, idx, Options{Searchers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan *countingConn, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		cc := &countingConn{Conn: conn}
		served <- cc
		s.handleConn(cc)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := &client{conn: conn, br: bufio.NewReader(conn), t: t}
	c.hello()
	cc := <-served

	frames := int64(1) // the HelloOK
	expect := func(what string) {
		t.Helper()
		frames++
		if got := cc.writes.Load(); got != frames {
			t.Fatalf("after %s: %d Writes for %d reply frames", what, got, frames)
		}
	}
	if rt, _ := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: 1, Queries: codes[:1]}.Append(nil)); rt != wire.MsgSearchOK {
		t.Fatalf("search answered %s", rt)
	}
	expect("a batch-1 search")
	// 16-bit codes at h=8: each of 64 queries matches a large share of the
	// shard, so the reply runs to tens of kilobytes.
	rt, resp := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: 8, Queries: codes[:64]}.Append(nil))
	if rt != wire.MsgSearchOK || len(resp) < 32<<10 {
		t.Fatalf("wide search answered %s with %d bytes, want a reply over 32 KiB", rt, len(resp))
	}
	expect("a wide search")
	if got := cc.longest.Load(); got != int64(len(resp))+5 {
		t.Fatalf("longest Write is %d bytes, the wide reply frame is %d: it was split", got, len(resp)+5)
	}
	if rt, _ := c.roundTrip(wire.MsgStats, nil); rt != wire.MsgStatsOK {
		t.Fatalf("stats answered %s", rt)
	}
	expect("stats")
	if rt, _ := c.roundTrip(wire.MsgInsert, nil); rt != wire.MsgError {
		t.Fatalf("insert on an immutable shard answered %s", rt)
	}
	expect("an error reply")
	conn.Close()
	<-done
}

// goid is the calling goroutine's id, read off its stack header
// ("goroutine 123 [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestRunBatchStaysOnTheCallingGoroutine: a batch of one is searched on the
// goroutine that admitted it — for a request, the connection's — with no
// hand-off, while a larger batch with idle searchers still fans out, the
// caller working alongside the extras.
func TestRunBatchStaysOnTheCallingGoroutine(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	meta, idx, _ := testShard(t, rng, 200, 32, 1, 0)
	s, err := New(meta, idx, Options{Searchers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	me := goid()
	ran := func(n int) map[string]int {
		var mu sync.Mutex
		by := make(map[string]int)
		var gate sync.WaitGroup
		gate.Add(min(n, 4))
		set, _, _ := s.admit(0, nil)
		s.release(s.runBatch(set, n, nil, func(_ *searcherSet, i int) core.SearchStats {
			if i < 4 {
				// Hold the first queries until every worker has claimed one,
				// so a fast worker cannot drain the cursor alone.
				gate.Done()
				gate.Wait()
			}
			mu.Lock()
			by[goid()]++
			mu.Unlock()
			return core.SearchStats{}
		}))
		return by
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		if by := ran(1); len(by) != 1 || by[me] != 1 {
			t.Fatalf("batch of one ran on %v, want only the calling goroutine %s", by, me)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines went %d → %d across 1000 batch-1 requests", before, after)
	}
	by := ran(16)
	if len(by) != 4 || by[me] == 0 {
		t.Fatalf("batch of 16 over 4 idle searchers ran on %v, want 4 goroutines including the caller %s", by, me)
	}
	if idle := s.poolIdle.Value(); idle != 4 || len(s.pool) != 4 {
		t.Fatalf("pool not restored: gauge %d, %d tickets", idle, len(s.pool))
	}
}

// clusteredShard is a one-partition index of 16 clusters of 500 codes, each
// within 3 flips of its centre, and the centres: a batch of them at h=8 is 16
// answers of about 500 ids — one shard's share of a wide request.
func clusteredShard(rng *rand.Rand) (wire.SnapshotMeta, *core.FrozenIndex, []bitvec.Code) {
	const bits = 64
	centres := make([]bitvec.Code, 16)
	var codes []bitvec.Code
	for i := range centres {
		centres[i] = bitvec.Rand(rng, bits)
		for j := 0; j < 500; j++ {
			c := centres[i].Clone()
			for f := 0; f < 3; f++ {
				c.FlipBit(rng.Intn(bits))
			}
			codes = append(codes, c)
		}
	}
	// Ids in no order the walk would find them in.
	ids := rng.Perm(len(codes))
	meta := wire.SnapshotMeta{Part: 0, Parts: 1, Length: bits}
	return meta, buildFrozen(codes, ids), centres
}

// TestAnswerSearchReplyAllocs pins what one 16-query × 500-id request costs
// the server in allocations: 10 today (11 under the race detector), 2 of
// them ParseSearchReq's (one word slab for the batch's codes and their
// headers), the rest the response's headers, the worker's closures, the
// held-set list and the payload, sized up front — not a code a query (29),
// nor an id copy a query and a payload grown by doubling, which took 59.
func TestAnswerSearchReplyAllocs(t *testing.T) {
	meta, idx, centres := clusteredShard(rand.New(rand.NewSource(16)))
	s, err := New(meta, idx, Options{Searchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitPlanned(t, s.Obs()) // the planned path, with no plan allocating beside it
	payload := wire.SearchReq{H: 8, Queries: centres}.Append(nil)
	var reply []byte
	run := func() { _, reply = s.answerSearch(payload, nil) }
	run() // sizes the searcher's scratch and the reply slab
	resp, err := wire.ParseSearchResp(reply)
	if err != nil || len(resp.IDs) != len(centres) {
		t.Fatalf("%d answers, err %v", len(resp.IDs), err)
	}
	for i, ids := range resp.IDs {
		if len(ids) < 500 || !slices.IsSorted(ids) {
			t.Fatalf("query %d: %d ids, sorted %v", i, len(ids), slices.IsSorted(ids))
		}
	}
	if allocs := testing.AllocsPerRun(50, run); allocs > 11 {
		t.Fatalf("a 16×500-id request allocates %.0f times, want at most 11", allocs)
	}
}
