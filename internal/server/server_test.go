package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/histo"
	"haindex/internal/lsm"
	"haindex/internal/obs"
	"haindex/internal/wire"
)

func testShard(t *testing.T, rng *rand.Rand, n, bits, parts, part int) (wire.SnapshotMeta, *core.FrozenIndex, []bitvec.Code) {
	t.Helper()
	codes := make([]bitvec.Code, n)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, bits)
	}
	pivots := histo.Pivots(codes[:n/4], parts)
	var own []bitvec.Code
	var ids []int
	for i, c := range codes {
		if histo.PartitionID(pivots, c) == part {
			own = append(own, c)
			ids = append(ids, i)
		}
	}
	meta := wire.SnapshotMeta{Part: part, Parts: parts, Length: bits, Pivots: pivots}
	return meta, buildFrozen(own, ids), codes
}

// buildFrozen is core.BuildFrozen over codes and their ids, which it leaves
// as they are.
func buildFrozen(codes []bitvec.Code, ids []int) *core.FrozenIndex {
	var rows []uint64
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	return core.BuildFrozen(codes[0].Len(), rows, slices.Clone(ids), core.Options{})
}

// client is a minimal raw-protocol client for server tests.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	t    *testing.T
}

func dialTest(t *testing.T, s *Server) *client {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, br: bufio.NewReader(conn), t: t}
}

func (c *client) roundTrip(typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c.conn, typ, payload); err != nil {
		c.t.Fatal(err)
	}
	rt, resp, err := wire.ReadFrame(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	return rt, resp
}

func (c *client) hello() wire.HelloOK {
	c.t.Helper()
	rt, resp := c.roundTrip(wire.MsgHello, wire.Hello{Version: wire.Version}.Append(nil))
	if rt != wire.MsgHelloOK {
		c.t.Fatalf("handshake answered %s", rt)
	}
	ok, err := wire.ParseHelloOK(resp)
	if err != nil {
		c.t.Fatal(err)
	}
	return ok
}

func startTestServer(t *testing.T, meta wire.SnapshotMeta, idx *core.FrozenIndex, opts Options) *Server {
	t.Helper()
	s, err := New(meta, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitPlanned polls the lsm.unplanned_segments gauge on reg until every
// segment of the shard it counts is planned — lsm.Frozen and Bootstrap plan
// in the background — and fails past a deadline.
func waitPlanned(t testing.TB, reg *obs.Registry) {
	t.Helper()
	g := reg.Gauge("lsm.unplanned_segments")
	for deadline := time.Now().Add(30 * time.Second); g.Value() != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("lsm.unplanned_segments = %d after 30s", g.Value())
		}
	}
}

func TestServerSearchMatchesLocalIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	meta, idx, codes := testShard(t, rng, 800, 32, 3, 1)
	s := startTestServer(t, meta, idx, Options{Searchers: 4})
	c := dialTest(t, s)
	ok := c.hello()
	if ok.Part != 1 || ok.Parts != 3 || ok.Length != 32 || ok.Tuples != idx.Len() || len(ok.Pivots) != 2 {
		t.Fatalf("hello: %+v", ok)
	}

	queries := make([]bitvec.Code, 50)
	for i := range queries {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(32))
		queries[i] = q
	}
	rt, resp := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: 3, Queries: queries}.Append(nil))
	if rt != wire.MsgSearchOK {
		t.Fatalf("search answered %s", rt)
	}
	parsed, err := wire.ParseSearchResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	sr := core.NewSearcher(idx)
	for i, q := range queries {
		want := append([]int(nil), sr.Search(q, 3)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		got := parsed.IDs[i]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d ids, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d id %d: %d vs %d", i, j, got[j], want[j])
			}
		}
	}

	// Top-k must match the local searcher exactly, including tie order.
	rt, resp = c.roundTrip(wire.MsgTopK, wire.TopKReq{K: 7, Queries: queries[:10]}.Append(nil))
	if rt != wire.MsgTopKOK {
		t.Fatalf("topk answered %s", rt)
	}
	tk, err := wire.ParseTopKResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[:10] {
		ids, dists := core.TopKByRadius(q.Len(), 7, func(h int) []int { return sr.Search(q, h) })
		if len(tk.IDs[i]) != len(ids) {
			t.Fatalf("topk query %d: %d vs %d results", i, len(tk.IDs[i]), len(ids))
		}
		for j := range ids {
			if tk.IDs[i][j] != ids[j] || tk.Dists[i][j] != dists[j] {
				t.Fatalf("topk query %d pos %d mismatch", i, j)
			}
		}
	}

	// Stats reflect the work.
	rt, resp = c.roundTrip(wire.MsgStats, nil)
	if rt != wire.MsgStatsOK {
		t.Fatalf("stats answered %s", rt)
	}
	st, err := wire.ParseStatsResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Queries != 50 || st.TopKQueries != 10 || st.DistanceComputations == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServerRejectsVersionMismatch: a Hello below or above the one protocol
// version gets a single error frame naming the offered and the spoken
// version, and then the connection is closed.
func TestServerRejectsVersionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	meta, idx, _ := testShard(t, rng, 100, 16, 2, 0)
	s := startTestServer(t, meta, idx, Options{})
	for _, offered := range []int{wire.Version - 1, 1, wire.Version + 9} {
		c := dialTest(t, s)
		rt, resp := c.roundTrip(wire.MsgHello, wire.Hello{Version: offered}.Append(nil))
		if rt != wire.MsgError {
			t.Fatalf("version %d answered %s", offered, rt)
		}
		em, err := wire.ParseErrorMsg(resp)
		want := fmt.Sprintf("protocol version %d not supported (server speaks %d)", offered, wire.Version)
		if err != nil || em.Msg != want {
			t.Fatalf("version %d: error frame %q, %v; want %q", offered, em.Msg, err, want)
		}
		if _, _, err := wire.ReadFrame(c.br); err == nil {
			t.Fatalf("version %d: connection left open after the refusal", offered)
		}
	}
}

func TestServerRequiresHelloFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	meta, idx, _ := testShard(t, rng, 100, 16, 2, 0)
	s := startTestServer(t, meta, idx, Options{})
	c := dialTest(t, s)
	rt, _ := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: 1}.Append(nil))
	if rt != wire.MsgError {
		t.Fatalf("search before hello answered %s", rt)
	}
}

func TestServerFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	meta, idx, codes := testShard(t, rng, 200, 16, 2, 0)
	faults := NewFaultPlan().FailRequest(0).DropRequest(1)
	s := startTestServer(t, meta, idx, Options{Faults: faults})

	c := dialTest(t, s)
	c.hello()
	req := wire.SearchReq{H: 2, Queries: codes[:3]}.Append(nil)
	if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgError {
		t.Fatalf("request 0 not failed: %s", rt)
	}
	// Request 1 drops the connection mid-request.
	if err := wire.WriteFrame(c.conn, wire.MsgSearch, req); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(c.br); err == nil {
		t.Fatal("request 1 not dropped")
	}
	// A fresh connection serves request 2 normally.
	c2 := dialTest(t, s)
	c2.hello()
	if rt, _ := c2.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
		t.Fatalf("request 2 answered %s", rt)
	}
	if got := s.Stats().FaultsInjected; got != 2 {
		t.Fatalf("FaultsInjected = %d, want 2", got)
	}
}

// TestServerConcurrentClients hammers one server from many goroutines; run
// under -race this exercises the searcher pool and stats counters.
func TestServerConcurrentClients(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	meta, idx, codes := testShard(t, rng, 600, 32, 2, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 3})
	oracle := core.NewSearcher(idx)
	type qa struct {
		q    bitvec.Code
		want []int
	}
	cases := make([]qa, 40)
	for i := range cases {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(32))
		want := append([]int(nil), oracle.Search(q, 3)...)
		sort.Ints(want)
		cases[i] = qa{q: q, want: want}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			if err := wire.WriteFrame(conn, wire.MsgHello, wire.Hello{Version: wire.Version}.Append(nil)); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := wire.ReadFrame(br); err != nil {
				t.Error(err)
				return
			}
			for rep := 0; rep < 10; rep++ {
				c := cases[(w*10+rep)%len(cases)]
				if err := wire.WriteFrame(conn, wire.MsgSearch, wire.SearchReq{H: 3, Queries: []bitvec.Code{c.q}}.Append(nil)); err != nil {
					t.Error(err)
					return
				}
				rt, resp, err := wire.ReadFrame(br)
				if err != nil || rt != wire.MsgSearchOK {
					t.Errorf("worker %d: %v %v", w, rt, err)
					return
				}
				parsed, err := wire.ParseSearchResp(resp)
				if err != nil {
					t.Error(err)
					return
				}
				got := parsed.IDs[0]
				if len(got) != len(c.want) {
					t.Errorf("worker %d rep %d: %d ids, want %d", w, rep, len(got), len(c.want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestLoadSnapshotFile(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	meta, idx, _ := testShard(t, rng, 300, 32, 2, 1)
	var buf bytes.Buffer
	if err := wire.WriteSnapshot(&buf, meta, idx); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.hasn")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSnapshotFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta().Part != 1 || s.shard.Len() != idx.Len() {
		t.Fatalf("loaded meta %+v len %d", s.Meta(), s.shard.Len())
	}
	if _, err := LoadSnapshotFile(filepath.Join(dir, "missing"), Options{}); err == nil {
		t.Fatal("missing snapshot accepted")
	}

	// A splatted section table is the arena decoder's error under either load
	// mode — the mapping failure is reported, not retried with the other
	// reader.
	bad := append([]byte(nil), buf.Bytes()...)
	arena := bytes.Index(bad, []byte("HADX"))
	for i := arena + 88; i < arena+120; i++ {
		bad[i] = 0xA5
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{true, false} {
		_, err := LoadSnapshotFile(path, Options{Mmap: mmap})
		if err == nil || !strings.Contains(err.Error(), "core: arena section 0") {
			t.Fatalf("Mmap=%v on a corrupt section table: %v", mmap, err)
		}
	}
}

// TestServerReapsDeadClient is the deadline bugfix's regression test: a
// client that goes silent (or half-writes a frame) must be reaped by the
// idle deadline instead of pinning its handler goroutine forever.
func TestServerReapsDeadClient(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	meta, idx, _ := testShard(t, rng, 100, 16, 2, 0)
	s := startTestServer(t, meta, idx, Options{IdleTimeout: 100 * time.Millisecond})

	// Connection 1: handshakes, then goes silent mid-session.
	c := dialTest(t, s)
	c.hello()
	// Connection 2: half-writes a frame header and stalls.
	half, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { half.Close() })
	if _, err := half.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}

	// Both connections must be closed by the server: reads unblock with an
	// error long before any request was answered.
	deadline := time.Now().Add(5 * time.Second)
	for _, conn := range []net.Conn{c.conn, half} {
		conn.SetReadDeadline(deadline)
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("dead connection still served")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server never reaped the dead connection")
		}
	}
	// The handler bookkeeping must drain too — no goroutine pinned.
	for start := time.Now(); ; {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d connections still tracked after reap", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A live client arriving afterwards is served normally.
	c2 := dialTest(t, s)
	c2.hello()
}

// TestServerDebugEndpoint exercises the observability surface end to end:
// after a few requests the debug endpoint must serve a registry snapshot
// with non-empty latency histograms and matching counters, and a trace dump.
func TestServerDebugEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	meta, idx, codes := testShard(t, rng, 300, 16, 2, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 2})
	dbgAddr, err := s.StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartDebug("127.0.0.1:0"); err == nil {
		t.Fatal("second debug endpoint accepted")
	}

	c := dialTest(t, s)
	c.hello()
	req := wire.SearchReq{H: 2, Queries: codes[:5]}.Append(nil)
	for i := 0; i < 4; i++ {
		if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
			t.Fatalf("search answered %s", rt)
		}
	}

	// The server records a request's latency after writing its reply; frames
	// on one connection are handled in order, so a stats round trip is the
	// barrier that puts the fourth sample in the histogram before it is read.
	c.roundTrip(wire.MsgStats, nil)

	resp, err := http.Get("http://" + dbgAddr.String() + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["requests"] != 4 {
		t.Fatalf("debug snapshot requests = %d, want 4", snap.Counters["requests"])
	}
	lat := snap.Histograms["req.search_ns"]
	if lat.Count != 4 || lat.P50 <= 0 || lat.Max < lat.P50 {
		t.Fatalf("latency histogram: %+v", lat)
	}
	if snap.Histograms["search.dist_comps"].Count == 0 {
		t.Fatal("per-search cost histograms empty")
	}
	// Wire-level stats carry the same percentiles (the v2 field).
	rt, body := c.roundTrip(wire.MsgStats, nil)
	if rt != wire.MsgStatsOK {
		t.Fatalf("stats answered %s", rt)
	}
	st, err := wire.ParseStatsResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.LatencyP50Ns != lat.P50 || st.LatencyMaxNs < st.LatencyP50Ns {
		t.Fatalf("wire stats percentiles %+v vs debug %+v", st, lat)
	}

	tresp, err := http.Get("http://" + dbgAddr.String() + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var traces struct {
		Total   int64           `json:"total"`
		Slowest json.RawMessage `json:"slowest"`
		Recent  json.RawMessage `json:"recent"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if traces.Total != 4 || string(traces.Slowest) == "null" {
		t.Fatalf("trace dump: total=%d slowest=%s", traces.Total, traces.Slowest)
	}
}

// TestServerEngineRouting starts a server and checks that
// every access path — the planner's choice and all three forced hints —
// returns exactly the local oracle's answer, and that the routing shows up
// in the shard's per-engine counters and latency histograms, one count per
// query of its one segment.
func TestServerEngineRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	meta, idx, codes := testShard(t, rng, 600, 32, 2, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 3, Engine: "auto"})
	waitPlanned(t, s.Obs())
	c := dialTest(t, s)
	c.hello()

	queries := make([]bitvec.Code, 20)
	for i := range queries {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(32))
		queries[i] = q
	}
	oracle := core.NewSearcher(idx)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = append([]int(nil), oracle.Search(q, 4)...)
		sort.Ints(want[i])
	}
	check := func(engine int) {
		t.Helper()
		req := wire.SearchReq{H: 4, Engine: engine, Queries: queries}.Append(nil)
		rt, resp := c.roundTrip(wire.MsgSearch, req)
		if rt != wire.MsgSearchOK {
			t.Fatalf("engine %s answered %s", hintName(engine), rt)
		}
		parsed, err := wire.ParseSearchResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			got := parsed.IDs[i]
			if len(got) != len(want[i]) {
				t.Fatalf("engine %s query %d: %d ids, want %d", hintName(engine), i, len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("engine %s query %d id %d: %d vs %d", hintName(engine), i, j, got[j], want[i][j])
				}
			}
		}
	}
	for _, engine := range []int{wire.EngineAuto, wire.EngineHA, wire.EngineMIH, wire.EngineScan} {
		check(engine)
	}

	snap := s.Obs().Snapshot()
	var routed int64
	for _, name := range []string{"lsm.search_ha", "lsm.search_mih", "lsm.search_scan"} {
		routed += snap.Counters[name]
	}
	if want := int64(4 * len(queries)); routed != want {
		t.Fatalf("strategy counters sum to %d, want %d (one per query)", routed, want)
	}
	// The three forced requests guarantee at least one sample per engine.
	for _, name := range []string{"lsm.search_ha_ns", "lsm.search_mih_ns", "lsm.search_scan_ns"} {
		if snap.Histograms[name].Count == 0 {
			t.Fatalf("histogram %s empty", name)
		}
	}
}

// TestServerAutoRoutingHoldsStill: a planned shard decides each
// threshold once, when its plan lands, so 200 requests at one h from two connections
// all take the same path — exactly one lsm.search_{ha,mih,scan} counter moves.
func TestServerAutoRoutingHoldsStill(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	meta, idx, codes := testShard(t, rng, 600, 32, 2, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 2, Engine: "auto"})
	waitPlanned(t, s.Obs())
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		c := dialTest(t, s)
		c.hello()
		go func(g int) {
			for i := 0; i < 100; i++ {
				q := codes[(g*100+i)%len(codes)]
				err := wire.WriteFrame(c.conn, wire.MsgSearch, wire.SearchReq{H: 3, Queries: []bitvec.Code{q}}.Append(nil))
				if err != nil {
					errs <- err
					return
				}
				if rt, _, err := wire.ReadFrame(c.br); err != nil || rt != wire.MsgSearchOK {
					errs <- fmt.Errorf("request %d answered %s, %v", i, rt, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	counters := s.Obs().Snapshot().Counters
	moved := 0
	for _, name := range []string{"lsm.search_ha", "lsm.search_mih", "lsm.search_scan"} {
		switch counters[name] {
		case 0:
		case 200:
			moved++
		default:
			t.Fatalf("%s = %d: the 200 requests were split across engines", name, counters[name])
		}
	}
	if moved != 1 {
		t.Fatalf("%d strategy counters reached 200, want exactly 1: %v", moved, counters)
	}
}

// TestServerRefusesNegativeTimeout: a connection's deadlines are always
// armed, so New, and LoadSnapshotFile before the load, refuse a negative
// IdleTimeout or WriteTimeout.
func TestServerRefusesNegativeTimeout(t *testing.T) {
	meta, idx, _ := testShard(t, rand.New(rand.NewSource(32)), 50, 16, 1, 0)
	for name, bad := range map[string]Options{"IdleTimeout": {IdleTimeout: -1}, "WriteTimeout": {WriteTimeout: -1}} {
		if _, err := New(meta, idx, bad); err == nil || !strings.Contains(err.Error(), "negative "+name) {
			t.Fatalf("New with %+v: %v", bad, err)
		}
		// Refused before the load: the file does not exist.
		if _, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "missing"), bad); err == nil || !strings.Contains(err.Error(), "negative "+name) {
			t.Fatalf("LoadSnapshotFile with %+v: %v", bad, err)
		}
	}
}

// TestServerEngineValidation covers the construction rules — Options.Engine
// is "" or "auto" and nothing else, "ha", "mih" and "scan" included, since
// an engine is pinned per request, by the hint, not per server; NewMutable
// takes "auto" and refuses a read-only shard — and that a server answers
// every hint from its first request: a zero-Options one, and a mutable one
// that has never been written, with the oracle's ids.
func TestServerEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	meta, idx, codes := testShard(t, rng, 200, 16, 2, 0)

	for _, engine := range []string{"warp", "ha", "mih", "scan"} {
		if _, err := New(meta, idx, Options{Engine: engine}); err == nil {
			t.Fatalf("engine option %q accepted", engine)
		}
		// Refused before the load: the file does not exist.
		if _, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "missing"), Options{Engine: engine}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Fatalf("LoadSnapshotFile with engine option %q: %v", engine, err)
		}
		if _, err := NewMutable(meta, lsm.New(16, lsm.Options{}), Options{Engine: engine}); err == nil {
			t.Fatalf("engine option %q accepted by NewMutable", engine)
		}
	}

	// NewMutable refuses a read-only shard: the shard decides whether the
	// mutation frames are served.
	if _, err := NewMutable(meta, lsm.Frozen(idx), Options{}); err == nil {
		t.Fatal("mutable server accepted a read-only shard")
	}

	sh := lsm.New(16, lsm.Options{})
	if err := sh.Bootstrap(idx); err != nil {
		t.Fatal(err)
	}
	ms, err := NewMutable(meta, sh, Options{Engine: "auto"})
	if err != nil {
		t.Fatalf("mutable server refused engine auto: %v", err)
	}
	if err := ms.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })

	oracle := core.NewSearcher(idx)
	for name, s := range map[string]*Server{"zero-Options": startTestServer(t, meta, idx, Options{}), "fresh mutable": ms} {
		c := dialTest(t, s)
		c.hello()
		for _, hint := range []int{wire.EngineAuto, wire.EngineHA, wire.EngineMIH, wire.EngineScan} {
			req := wire.SearchReq{H: 2, Engine: hint, Queries: codes[:8]}.Append(nil)
			rt, resp := c.roundTrip(wire.MsgSearch, req)
			if rt != wire.MsgSearchOK {
				t.Fatalf("%s server: %s hint answered %s", name, hintName(hint), rt)
			}
			parsed, err := wire.ParseSearchResp(resp)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range codes[:8] {
				want := append([]int(nil), oracle.Search(q, 2)...)
				sort.Ints(want)
				if !slices.Equal(parsed.IDs[i], want) {
					t.Fatalf("%s server: %s hint, query %d: %v, the oracle %v", name, hintName(hint), i, parsed.IDs[i], want)
				}
			}
		}
	}
}

// TestMutableSearchCountsSegmentSearches: a mutable shard plans its
// bootstrapped segment before it is ever sealed, so k searches of two
// queries at one h run that segment through the one engine its plan picks
// there — that engine's lsm.search_* counter and _ns histogram hold 2k
// segment searches, the other two engines' stay at 0 — while req.search_ns
// times all k requests.
func TestMutableSearchCountsSegmentSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	meta, idx, codes := testShard(t, rng, 300, 16, 1, 0)
	sh := lsm.New(16, lsm.Options{MemtableMax: -1})
	if err := sh.Bootstrap(idx); err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, sh.Obs())
	sh.Insert(1000, codes[3]) // one row in the memtable, the rest in a segment
	ms, err := NewMutable(meta, sh, Options{Searchers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	c := dialTest(t, ms)
	c.hello()
	const k = 5
	for i := 0; i < k; i++ {
		req := wire.SearchReq{H: 2, Queries: codes[i : i+2]}.Append(nil)
		if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
			t.Fatalf("search %d answered %s", i, rt)
		}
	}
	// The server records a request's latency after writing its reply; a
	// stats round trip on the same connection puts the last sample in.
	c.roundTrip(wire.MsgStats, nil)
	snap := ms.Obs().Snapshot()
	ran := 0
	for _, name := range []string{"ha", "mih", "scan"} {
		n, samples := snap.Counters["lsm.search_"+name], snap.Histograms["lsm.search_"+name+"_ns"].Count
		if n != samples || (n != 0 && n != 2*k) {
			t.Fatalf("lsm.search_%s = %d with %d _ns samples after %d searches of two queries, want 0 or %d of each", name, n, samples, k, 2*k)
		}
		if n != 0 {
			ran++
		}
	}
	if ran != 1 {
		t.Fatalf("%d engines ran the planned segment at one h, want 1: %v", ran, snap.Counters)
	}
	if n := snap.Histograms["req.search_ns"].Count; n != k {
		t.Fatalf("req.search_ns holds %d samples, want %d", n, k)
	}
}

// TestStatsCountersLiveInTheRegistry: every count Stats reports is an
// instrument on the shard's registry, so /debug/obs shows the same numbers —
// after searches and a top-k, the queries, topk_queries and ids_returned
// counters equal the matching Stats fields. A read-only server and a
// mutable one over the same snapshot hang the same lsm.* and req.*
// instruments on their shards' registries.
func TestStatsCountersLiveInTheRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	meta, idx, codes := testShard(t, rng, 400, 32, 1, 0)
	path := filepath.Join(t.TempDir(), "shard.hasn")
	var buf bytes.Buffer
	if err := wire.WriteSnapshot(&buf, meta, idx); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	readOnly, err := LoadSnapshotFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, eager, err := wire.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sh := lsm.New(meta.Length, lsm.Options{})
	if err := sh.Bootstrap(eager); err != nil {
		t.Fatal(err)
	}
	mutable, err := NewMutable(meta, sh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const searches = 6
	names := map[string][]string{}
	for name, s := range map[string]*Server{"read-only": readOnly, "mutable": mutable} {
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		c := dialTest(t, s)
		c.hello()
		for i := 0; i < searches; i++ {
			req := wire.SearchReq{H: 3, Queries: codes[2*i : 2*i+2]}.Append(nil)
			if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
				t.Fatalf("%s: search %d answered %s", name, i, rt)
			}
		}
		if rt, _ := c.roundTrip(wire.MsgTopK, wire.TopKReq{K: 4, Queries: codes[:3]}.Append(nil)); rt != wire.MsgTopKOK {
			t.Fatalf("%s: top-k answered %s", name, rt)
		}
		st, snap := s.Stats(), s.Obs().Snapshot()
		for _, w := range []struct {
			counter string
			stat    int64
		}{
			{"queries", st.Queries},
			{"topk_queries", st.TopKQueries},
			{"ids_returned", st.IDsReturned},
		} {
			if got := snap.Counters[w.counter]; got != w.stat {
				t.Errorf("%s: counter %s = %d, Stats reports %d", name, w.counter, got, w.stat)
			}
		}
		if st.Queries != 2*searches || st.TopKQueries != 3 || st.IDsReturned < 3*4 {
			t.Errorf("%s: stats after %d queries and a 3-query top-4: %+v", name, 2*searches, st)
		}
		for _, kind := range []map[string]int64{snap.Counters, snap.Gauges} {
			for n := range kind {
				names[name] = append(names[name], n)
			}
		}
		for n := range snap.Histograms {
			names[name] = append(names[name], n)
		}
		names[name] = slices.DeleteFunc(names[name], func(n string) bool {
			return !strings.HasPrefix(n, "lsm.") && !strings.HasPrefix(n, "req.")
		})
		sort.Strings(names[name])
	}
	if len(names["read-only"]) == 0 || !slices.Equal(names["read-only"], names["mutable"]) {
		t.Fatalf("lsm.* and req.* instruments differ:\n read-only %v\n mutable   %v", names["read-only"], names["mutable"])
	}
}

// TestLoadSnapshotFileMmap: a snapshot served with Options.Mmap aliases its
// arena out of the file (mapped_bytes > 0, and its only heap bytes are the
// planned MIH's key tables: heap_bytes == aux_heap_bytes), answers exactly
// like an eager load, and releases the mapping on Close; without the option
// the same file is decoded onto the heap.
func TestLoadSnapshotFileMmap(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	meta, frozen, codes := testShard(t, rng, 400, 32, 2, 1)
	dir := t.TempDir()

	v4 := filepath.Join(dir, "v4.hasn")
	f, err := os.Create(v4)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteSnapshot(f, meta, frozen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := LoadSnapshotFile(v4, Options{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, s.Obs())
	g := s.Obs().Snapshot().Gauges
	fz := s.owned
	if fz.MappedBytes() > 0 { // zero-copy path available on this platform
		if g["index.mapped_bytes"] == 0 || g["index.heap_bytes"] != g["index.aux_heap_bytes"] {
			t.Fatalf("gauges mapped=%d heap=%d aux=%d on an mmap'd shard", g["index.mapped_bytes"], g["index.heap_bytes"], g["index.aux_heap_bytes"])
		}
	} else if g["index.heap_bytes"] == 0 {
		t.Fatalf("eager fallback shard reports zero heap bytes")
	}
	want := core.NewSearcher(frozen)
	got := core.NewSearcher(s.owned)
	for _, q := range codes[:30] {
		w := append([]int(nil), want.Search(q, 3)...)
		if g := got.Search(q, 3); len(g) != len(w) {
			t.Fatalf("mmap-served index answers %d ids, want %d", len(g), len(w))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fz.MappedBytes() != 0 {
		t.Fatal("Close did not release the mapping")
	}

	s2, err := LoadSnapshotFile(v4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	g2 := s2.Obs().Snapshot().Gauges
	if g2["index.mapped_bytes"] != 0 || g2["index.heap_bytes"] == 0 {
		t.Fatalf("eager load gauges mapped=%d heap=%d", g2["index.mapped_bytes"], g2["index.heap_bytes"])
	}
}
