// Package server hosts one shard of an HA-Index behind the wire protocol:
// it loads a partition snapshot (internal/wire), answers batched
// Hamming-select and top-k requests with batched admission, and keeps
// per-shard statistics. One process serves one Gray partition; a deployment
// runs one or more replicas of each partition and a client router
// (internal/client) fans queries across them.
//
// Every server answers through an lsm.Shard, each of whose segments is
// planned as it joins the shard's stack and searched by the engine its own
// counted plan picks or the request's hint pins; HA answers only for a
// segment whose plan is still being counted. New wraps a frozen index as a
// read-only shard of one segment, planned in the background; NewMutable
// serves a shard the caller built and differs in one way only: that shard
// is not read-only, so the server also answers the mutation frames
// (insert/delete/seal). Mutations are applied synchronously, so an
// acknowledged write is visible to every subsequent search. The server counts
// on the shard's registry (lsm.Shard.Obs): Stats and /debug/obs read one.
package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"haindex/internal/core"
	"haindex/internal/histo"
	"haindex/internal/lsm"
	"haindex/internal/obs"
	"haindex/internal/planner"
	"haindex/internal/wire"
)

// Options configures a shard server.
type Options struct {
	// Searchers is the size of the searcher pool — the maximum number of
	// concurrently executing queries across all connections. 0 selects
	// GOMAXPROCS.
	Searchers int
	// Faults optionally injects deterministic request-level faults (tests,
	// smoke runs). Nil injects nothing.
	Faults *FaultPlan

	// Mmap makes LoadSnapshotFile serve the snapshot zero-copy: the embedded
	// arena is aliased straight out of an mmap of the file, so the shard is
	// query-ready in milliseconds regardless of size and its slabs stay in
	// the page cache instead of the Go heap. False (or a platform without
	// the mmap fast path) decodes the same file eagerly onto the heap — same
	// answers, eager cost. The server owns the mapping and releases it on
	// Close.
	Mmap bool

	// Engine accepts "" and "auto" only, which mean the same: every segment
	// is planned — MIH over the segment's own leaf arena and the
	// counted-cost planner, which then routes each request among HA, MIH and
	// the brute scan. The wire hint pins one engine per request on every
	// planned segment.
	Engine string

	// ShedAfter, when positive, is the admission-wait budget: a search or
	// top-k request still waiting for an admission ticket past it is
	// answered with a polite MsgShed instead of queueing further. 0 disables.
	ShedAfter time.Duration

	// IdleTimeout bounds how long a connection may sit between frames (and
	// how long a half-written request may stall) before the server reaps it.
	// A stalled or half-open client otherwise pins its handler goroutine
	// forever. 0 selects 30s; a negative value is refused.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response frame to a client that has
	// stopped reading. 0 selects 30s; a negative value is refused.
	WriteTimeout time.Duration
}

// traceCapacity is the size of the per-server ring of request traces kept
// for the debug endpoint.
const traceCapacity = 64

// Stats is a snapshot of the per-shard serving counters.
type Stats = wire.StatsResp

// Server serves one shard. Create with New, start with Start (or Serve on
// an existing listener), stop with Close.
type Server struct {
	meta wire.SnapshotMeta
	opts Options

	// shard answers every search and top-k, and the mutation frames unless
	// it is read-only.
	shard *lsm.Shard

	// owned is an index the server loaded itself (LoadSnapshotFile); Close
	// releases its mapping, if it has one.
	owned *core.FrozenIndex

	// pool holds the idle admission tickets with their reply buffers; its
	// capacity is the admission limit. The shard pools its own per-segment
	// searchers.
	pool chan *searcherSet

	// reqSeq numbers search/top-k requests across all connections — the
	// coordinate system of the fault plan.
	reqSeq atomic.Int64

	// Observability: every instrument Stats reads, and the per-message-type
	// latency histograms, are the shard registry's, resolved once here; the
	// tracer rings recent request span trees.
	tracer        *obs.Tracer
	reqCount      *obs.Counter
	cntQueries    *obs.Counter // queries: select queries asked
	cntTopK       *obs.Counter // topk_queries
	cntIDs        *obs.Counter // ids_returned, by selects and top-k
	errCount      *obs.Counter
	faultCount    *obs.Counter
	histSearch    *obs.Histogram // req.search_ns
	histTopK      *obs.Histogram // req.topk_ns
	histStats     *obs.Histogram // req.stats_ns
	histMutate    *obs.Histogram // req.mutate_ns
	histAdmission *obs.Histogram // admission_wait_ns
	histDist      *obs.Histogram // search.dist_comps
	histNodes     *obs.Histogram // search.nodes_visited
	histLeaves    *obs.Histogram // search.leaves_checked
	poolIdle      *obs.Gauge
	cntShed       *obs.Counter // sheds: requests refused past ShedAfter

	mu      sync.Mutex
	ln      net.Listener
	debugLn net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// searcherSet is one admission ticket. ids is the reply slab of the request
// holding it: the sorted ids of every query this set's worker answered,
// which the response points into until it is encoded — the reason release,
// not the worker, returns the set. scratch is sortIDs' second buffer.
type searcherSet struct {
	ids, scratch []int
}

// maxKeptIDs bounds the reply buffers a pooled set keeps from one request to
// the next (2 MiB each); one answer the size of the shard is not worth pinning.
const maxKeptIDs = 1 << 18

// New builds a server over a frozen index — the arena a snapshot decodes or
// maps to — wrapped as a read-only lsm.Shard of one segment, planned in the
// background (lsm.Frozen). MIH and the scan read the index's own leaf arena,
// so the index must not be closed while the server runs.
func New(meta wire.SnapshotMeta, idx *core.FrozenIndex, opts Options) (*Server, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if idx.Length() != meta.Length {
		return nil, fmt.Errorf("server: index is %d-bit, snapshot header says %d", idx.Length(), meta.Length)
	}
	return newServer(meta, lsm.Frozen(idx), opts), nil
}

// NewMutable builds a server over a mutable LSM shard, which plans each
// segment as it joins its stack (lsm.Shard.Bootstrap, Seal, Compact). The
// caller keeps ownership of the shard's lifecycle up to Close, which waits
// out the shard's background seals, compactions and planning. The server
// counts on the shard's registry, so a shard serves one server.
func NewMutable(meta wire.SnapshotMeta, sh *lsm.Shard, opts Options) (*Server, error) {
	if sh.Length() != meta.Length {
		return nil, fmt.Errorf("server: shard is %d-bit, snapshot header says %d", sh.Length(), meta.Length)
	}
	if sh.ReadOnly() {
		return nil, fmt.Errorf("server: NewMutable over a read-only shard (serve its index with New)")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return newServer(meta, sh, opts), nil
}

// withDefaults fills in the zero fields, and refuses any Engine but "" and
// "auto" (an engine is pinned per request, by the hint, not per server) and
// a negative timeout (a connection's deadlines are always armed).
func (opts Options) withDefaults() (Options, error) {
	if opts.Engine != "" && opts.Engine != "auto" {
		return opts, fmt.Errorf("server: unknown engine %q (want auto; a request's engine hint pins ha, mih or scan)", opts.Engine)
	}
	if opts.IdleTimeout < 0 {
		return opts, fmt.Errorf("server: negative IdleTimeout %v (0 selects 30s)", opts.IdleTimeout)
	}
	if opts.WriteTimeout < 0 {
		return opts, fmt.Errorf("server: negative WriteTimeout %v (0 selects 30s)", opts.WriteTimeout)
	}
	if opts.Searchers <= 0 {
		opts.Searchers = runtime.GOMAXPROCS(0)
	}
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = 30 * time.Second
	}
	if opts.WriteTimeout == 0 {
		opts.WriteTimeout = 30 * time.Second
	}
	return opts, nil
}

func newServer(meta wire.SnapshotMeta, sh *lsm.Shard, opts Options) *Server {
	s := &Server{
		meta:   meta,
		opts:   opts,
		shard:  sh,
		pool:   make(chan *searcherSet, opts.Searchers),
		conns:  make(map[net.Conn]struct{}),
		tracer: obs.NewTracer(traceCapacity),
	}
	reg := sh.Obs()
	s.reqCount = reg.Counter("requests")
	s.cntQueries = reg.Counter("queries")
	s.cntTopK = reg.Counter("topk_queries")
	s.cntIDs = reg.Counter("ids_returned")
	s.errCount = reg.Counter("errors")
	s.faultCount = reg.Counter("faults_injected")
	s.histSearch = reg.Histogram("req.search_ns")
	s.histTopK = reg.Histogram("req.topk_ns")
	s.histStats = reg.Histogram("req.stats_ns")
	s.histMutate = reg.Histogram("req.mutate_ns")
	s.histAdmission = reg.Histogram("admission_wait_ns")
	s.histDist = reg.Histogram("search.dist_comps")
	s.histNodes = reg.Histogram("search.nodes_visited")
	s.histLeaves = reg.Histogram("search.leaves_checked")
	s.poolIdle = reg.Gauge("pool.idle")
	s.poolIdle.Set(int64(opts.Searchers))
	s.cntShed = reg.Counter("sheds")
	for i := 0; i < cap(s.pool); i++ {
		s.pool <- new(searcherSet)
	}
	return s
}

// Obs returns the shard's metric registry, which holds the server's counters,
// gauges and histograms beside the shard's lsm.* instruments.
func (s *Server) Obs() *obs.Registry { return s.shard.Obs() }

// LoadSnapshotFile is New over a snapshot file on disk: mmap'd zero-copy
// when Options.Mmap is set, decoded onto the heap otherwise. A file either
// reader refuses is an error — there is no second format to retry with. It
// returns before the plan lands: load.total_ns is the load to serving.
func LoadSnapshotFile(path string, opts Options) (*Server, error) {
	t0 := time.Now()
	opts, err := opts.withDefaults() // a bad option is refused before the load
	if err != nil {
		return nil, err
	}
	load := wire.ReadSnapshotFile
	if opts.Mmap {
		load = wire.MapSnapshotFile
	}
	meta, fz, err := load(path)
	if err != nil {
		return nil, fmt.Errorf("server: loading snapshot %s: %w", path, err)
	}
	mapNs := time.Since(t0).Nanoseconds()
	srv, err := New(meta, fz, opts)
	if err != nil {
		fz.Close()
		return nil, err
	}
	srv.owned = fz
	srv.Obs().Gauge("load.map_ns").Set(mapNs)
	srv.Obs().Gauge("load.total_ns").Set(time.Since(t0).Nanoseconds())
	return srv, nil
}

// Meta returns the shard's snapshot header.
func (s *Server) Meta() wire.SnapshotMeta { return s.meta }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops the listeners (serving and debug), closes all connections,
// waits for handlers and the shard's background work, and only then
// releases an owned mapping.
func (s *Server) Close() error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	ln, dln := s.ln, s.debugLn
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if dln != nil {
		dln.Close()
	}
	s.wg.Wait()
	s.shard.Close() // wait out background plans, seals and compactions
	if !first {
		return nil
	}
	// Every searcher — HA walk, MIH, and the scan alike — reads the arena
	// about to be unmapped. Handlers have exited, so all admission tickets
	// are back; taking them makes "no search in flight" a fact, not an
	// inference, and parks any late caller on an empty pool.
	for i := 0; i < cap(s.pool); i++ {
		<-s.pool
	}
	if s.owned != nil {
		return s.owned.Close() // release the mmap'd arena
	}
	return nil
}

// Stats returns a snapshot of the serving counters. The work totals are the
// sums of the per-query search.* histograms, the latency percentile fields
// summarize the per-request search and top-k histograms, and AdmissionP50Ns
// the wait for an admission ticket.
func (s *Server) Stats() Stats {
	lat := s.histSearch.Snapshot()
	lat.Merge(s.histTopK.Snapshot())
	return Stats{
		Requests:             s.reqCount.Value(),
		Queries:              s.cntQueries.Value(),
		TopKQueries:          s.cntTopK.Value(),
		IDsReturned:          s.cntIDs.Value(),
		Errors:               s.errCount.Value(),
		FaultsInjected:       s.faultCount.Value(),
		DistanceComputations: s.histDist.Sum(),
		NodesVisited:         s.histNodes.Sum(),
		LeavesChecked:        s.histLeaves.Sum(),
		LatencyP50Ns:         lat.P50(),
		LatencyP95Ns:         lat.P95(),
		LatencyP99Ns:         lat.P99(),
		LatencyMaxNs:         lat.Max,
		AdmissionP50Ns:       s.histAdmission.Snapshot().P50(),
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	// Deadlines are the reap mechanism for dead and stalled clients: the
	// read deadline is re-armed before every frame (bounding both idle
	// sessions and half-written requests), the write deadline before every
	// response (bounding clients that stopped reading). Without them a
	// half-open connection pins this goroutine forever.
	readFrame := func() (wire.MsgType, []byte, error) {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		return wire.ReadFrame(br)
	}
	writeMsg := func(t wire.MsgType, payload []byte) bool {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		// Straight onto the connection: one Write, one wake-up of the client.
		return wire.WriteFrame(conn, t, payload) == nil
	}
	writeErr := func(format string, args ...interface{}) bool {
		s.errCount.Inc()
		return writeMsg(wire.MsgError, wire.ErrorMsg{Msg: fmt.Sprintf(format, args...)}.Append(nil))
	}

	// The session must open with a version handshake.
	t, payload, err := readFrame()
	if err != nil {
		return
	}
	if t != wire.MsgHello {
		writeErr("expected hello, got %s", t)
		return
	}
	hello, err := wire.ParseHello(payload)
	if err != nil {
		writeErr("bad hello: %v", err)
		return
	}
	// One protocol version: a client offering any other is refused by name
	// and the connection closed.
	if hello.Version != wire.Version {
		writeErr("protocol version %d not supported (server speaks %d)", hello.Version, wire.Version)
		return
	}
	ok := wire.HelloOK{Version: wire.Version, SnapshotMeta: s.meta, Tuples: s.shard.Len()}
	if !writeMsg(wire.MsgHelloOK, ok.Append(nil)) {
		return
	}

	for {
		t, payload, err := readFrame()
		if err != nil {
			return // client went away, stalled past the deadline, or sent garbage framing
		}
		switch t {
		case wire.MsgSearch, wire.MsgTopK:
			s.reqCount.Inc()
			t0 := time.Now()
			tr := obs.NewTrace(t.String())
			seq := s.reqSeq.Add(1) - 1
			f := s.opts.Faults.fault(seq)
			if f.Delay > 0 {
				s.faultCount.Inc()
				sp := tr.Start("fault.delay", 0)
				time.Sleep(f.Delay)
				tr.End(sp)
			}
			if f.Drop {
				s.faultCount.Inc()
				return
			}
			if f.Shed {
				// A deterministic shed for smoke tests.
				s.faultCount.Inc()
				respType, resp := s.shedResp(0)
				if !writeMsg(respType, resp) {
					return
				}
				continue
			}
			var respType wire.MsgType
			var resp []byte
			if t == wire.MsgSearch {
				respType, resp = s.answerSearch(payload, tr)
			} else {
				respType, resp = s.answerTopK(payload, tr)
			}
			if respType == wire.MsgError {
				s.errCount.Inc()
			}
			sp := tr.Start("write", 0)
			ok := writeMsg(respType, resp)
			tr.End(sp)
			if t == wire.MsgSearch {
				s.histSearch.RecordSince(t0)
			} else {
				s.histTopK.RecordSince(t0)
			}
			s.tracer.Add(tr)
			if !ok {
				return
			}
		case wire.MsgStats:
			t0 := time.Now()
			ok := writeMsg(wire.MsgStatsOK, s.Stats().Append(nil))
			s.histStats.RecordSince(t0)
			if !ok {
				return
			}
		case wire.MsgInsert, wire.MsgSeal:
			if s.shard.ReadOnly() {
				if !writeErr("shard is immutable: %s refused", t) {
					return
				}
				continue
			}
			s.reqCount.Inc()
			t0 := time.Now()
			var respType wire.MsgType
			var resp []byte
			if t == wire.MsgInsert {
				respType, resp = s.answerInsert(payload)
			} else {
				respType, resp = s.answerSeal(payload)
			}
			if respType == wire.MsgError {
				s.errCount.Inc()
			}
			ok := writeMsg(respType, resp)
			s.histMutate.RecordSince(t0)
			if !ok {
				return
			}
		default:
			if !writeErr("unexpected %s frame", t) {
				return
			}
		}
	}
}

// shedResp counts and encodes one shed answer.
func (s *Server) shedResp(waited time.Duration) (wire.MsgType, []byte) {
	s.cntShed.Inc()
	return wire.MsgShed, wire.ShedResp{WaitNs: waited.Nanoseconds()}.Append(nil)
}

func (s *Server) answerSearch(payload []byte, tr *obs.Trace) (wire.MsgType, []byte) {
	req, err := wire.ParseSearchReq(payload, s.meta.Length)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	if req.H < 0 || req.H > s.meta.Length {
		return wire.MsgError, wire.ErrorMsg{Msg: fmt.Sprintf("threshold %d out of range", req.H)}.Append(nil)
	}
	// The wire's hints, which the parse has range-checked, are the planner's
	// strategies shifted by one: none lets each segment's plan decide
	// (planner.UsePlan), and ha, mih or scan runs on every planned segment.
	pin := planner.Strategy(req.Engine - wire.EngineHA)
	s.cntQueries.Add(int64(len(req.Queries)))
	resp := wire.SearchResp{IDs: make([][]int, len(req.Queries))}
	var held []*searcherSet
	if len(req.Queries) > 0 {
		set, shed, waited := s.admit(s.opts.ShedAfter, tr)
		if shed {
			return s.shedResp(waited)
		}
		held = s.runBatch(set, len(req.Queries), tr, func(set *searcherSet, i int) core.SearchStats {
			var stats core.SearchStats
			// Onto the end of the worker's slab, where they stay.
			start := len(set.ids)
			set.ids = s.shard.SearchInto(req.Queries[i], req.H, pin, set.ids, &stats)
			ids := set.ids[start:]
			s.cntIDs.Add(int64(len(ids)))
			set.scratch = sortIDs(ids, set.scratch)
			resp.IDs[i] = ids
			return stats
		})
	}
	out := resp.Append(nil) // while the slabs it reads are still this request's
	s.release(held)
	return wire.MsgSearchOK, out
}

func (s *Server) answerTopK(payload []byte, tr *obs.Trace) (wire.MsgType, []byte) {
	req, err := wire.ParseTopKReq(payload, s.meta.Length)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	if req.K < 0 || req.K > 1<<20 {
		return wire.MsgError, wire.ErrorMsg{Msg: fmt.Sprintf("k %d out of range", req.K)}.Append(nil)
	}
	s.cntTopK.Add(int64(len(req.Queries)))
	resp := wire.TopKResp{IDs: make([][]int, len(req.Queries)), Dists: make([][]int, len(req.Queries))}
	if len(req.Queries) > 0 {
		// The same admission budget as a search: an overloaded shard sheds
		// top-k too.
		set, shed, waited := s.admit(s.opts.ShedAfter, tr)
		if shed {
			return s.shedResp(waited)
		}
		// TopK's slices are freshly allocated, so the sets can go straight back.
		s.release(s.runBatch(set, len(req.Queries), tr, func(_ *searcherSet, i int) core.SearchStats {
			var stats core.SearchStats
			ids, dists := s.shard.TopKInto(req.Queries[i], req.K, &stats)
			resp.IDs[i], resp.Dists[i] = ids, dists
			s.cntIDs.Add(int64(len(ids)))
			return stats
		}))
	}
	return wire.MsgTopKOK, resp.Append(nil)
}

// answerInsert applies the router's whole write frame: it upserts each pair
// whose code falls in this shard's Gray range and deletes every other id, so
// an upsert that moved an id's code to another partition retires the old copy
// here, and a frame without codes deletes all its ids. It answers how many of
// the ids were live.
func (s *Server) answerInsert(payload []byte) (wire.MsgType, []byte) {
	req, err := wire.ParseInsertReq(payload, s.meta.Length)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	live := 0
	for i, id := range req.IDs {
		if len(req.Codes) == 0 || histo.PartitionID(s.meta.Pivots, req.Codes[i]) != s.meta.Part {
			if s.shard.Delete(id) {
				live++
			}
		} else if s.shard.Insert(id, req.Codes[i]) {
			live++
		}
	}
	return wire.MsgInsertOK, wire.InsertResp{Live: live}.Append(nil)
}

// answerSeal runs a synchronous seal (and optional compaction), so the OK
// frame doubles as a structural barrier for the connection.
func (s *Server) answerSeal(payload []byte) (wire.MsgType, []byte) {
	req, err := wire.ParseSealReq(payload)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	s.shard.Seal(req.Compact)
	st := s.shard.Stats()
	resp := wire.SealOK{
		Segments:     st.Segments,
		MemtableSize: st.MemtableSize,
		Tombstones:   st.Tombstones,
		Epoch:        st.Epoch,
	}
	return wire.MsgSealOK, resp.Append(nil)
}

// admit blocks for one admission ticket, up to budget (0 = forever). It
// reports the acquired set (nil only when shed), a shed flag, and how long the
// request waited. The blocking wait is the queueing delay a saturated pool
// imposes; its span and histogram are where overload shows up first — and,
// past the budget, where it is shed.
func (s *Server) admit(budget time.Duration, tr *obs.Trace) (set *searcherSet, shed bool, waited time.Duration) {
	t0 := time.Now()
	adm := tr.Start("admission", 0)
	if budget <= 0 {
		set = <-s.pool
	} else {
		select {
		case set = <-s.pool:
		default:
			timer := time.NewTimer(budget)
			select {
			case set = <-s.pool:
				timer.Stop()
			case <-timer.C:
				shed = true
			}
		}
	}
	tr.End(adm)
	waited = time.Since(t0)
	s.histAdmission.Record(waited.Nanoseconds())
	return set, shed, waited
}

// runBatch executes one request's queries with batched admission: the
// caller has already blocked for one searcher through admit (the admission
// ticket — at most Options.Searchers requests make progress at once), and
// runBatch opportunistically grabs idle extras to parallelize the batch, so
// a lone large batch uses the whole pool while concurrent small requests
// are not starved. The calling goroutine is always one of the workers and
// goroutines start only for the extras, so a batch of one never leaves the
// connection's goroutine. Queries are claimed off an atomic cursor, mirroring
// core.SearchBatch. run returns the index work one query did. The sets that
// worked come back still held, their reply slabs intact, and are the caller's
// to release once nothing points into them.
func (s *Server) runBatch(first *searcherSet, n int, tr *obs.Trace, run func(set *searcherSet, i int) core.SearchStats) []*searcherSet {
	held := []*searcherSet{first}
	s.poolIdle.Add(-1)
	runSpan := tr.Start("run", 0)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	work := func(sr *searcherSet) {
		sr.ids = sr.ids[:0]
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				break
			}
			stats := run(sr, i)
			// Per-search cost distributions: how much index work one
			// query did, the core.SearchStats flow into the registry, whose
			// sums are the totals Stats reports.
			s.histDist.Record(int64(stats.DistanceComputations))
			s.histNodes.Record(int64(stats.NodesVisited))
			s.histLeaves.Record(int64(stats.LeavesChecked))
		}
	}
extras:
	for len(held) < n {
		select {
		case sr := <-s.pool:
			s.poolIdle.Add(-1)
			held = append(held, sr)
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(sr)
			}()
		default:
			break extras
		}
	}
	work(first)
	wg.Wait()
	tr.End(runSpan)
	return held
}

// release returns a finished request's sets to the pool, dropping a reply
// buffer that one outsized answer grew past maxKeptIDs.
func (s *Server) release(held []*searcherSet) {
	for _, sr := range held {
		if cap(sr.ids) > maxKeptIDs {
			sr.ids = nil
		}
		if cap(sr.scratch) > maxKeptIDs {
			sr.scratch = nil
		}
		s.pool <- sr
		s.poolIdle.Add(1)
	}
}
