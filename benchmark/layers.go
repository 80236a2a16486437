package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/client"
	"haindex/internal/core"
	"haindex/internal/histo"
	"haindex/internal/lsm"
	"haindex/internal/mih"
	"haindex/internal/planner"
	"haindex/internal/server"
	"haindex/internal/wire"
)

// The per-layer figures are measured from outside: the harness times its own
// calls into each layer's public functions. Two kinds of call are timed.
// Once per run, before the children start, the build-time steps a haserve
// child goes through (map the snapshot, build MIH, calibrate the planner) and
// the engines over a fixed probe set. Then, in the traced half-window, caller
// A follows 1 in SampleEvery of its live requests with a replay of that same
// request step by step: route, encode, one raw-connection round trip per
// target child, decode, and the engine work over the harness's own mapping of
// the same snapshot.

// rawConn is a handshaken connection to one child, used to time a frame
// round trip without the Router around it.
type rawConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(addr string) (*rawConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	c := &rawConn{conn: conn, br: bufio.NewReader(conn)}
	t, _, _, err := c.roundTrip(wire.MsgHello, wire.Hello{Version: wire.Version}.Append(nil))
	if err == nil && t != wire.MsgHelloOK {
		err = fmt.Errorf("handshake with %s answered %s", addr, t)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *rawConn) roundTrip(t wire.MsgType, payload []byte) (wire.MsgType, []byte, time.Duration, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	t0 := time.Now()
	if err := wire.WriteFrame(c.conn, t, payload); err != nil {
		return 0, nil, 0, err
	}
	rt, resp, err := wire.ReadFrame(c.br)
	return rt, resp, time.Since(t0), err
}

// sample is what one replayed request measured beyond its spans.
type sample struct {
	reqSpan, legSpan int // the request and its slowest shard leg
	queries          int
	shardsHit        int // query x shard pairs routed
	route            time.Duration
	encodeReq        time.Duration
	decodeReq        time.Duration
	encodeResp       time.Duration
	decodeResp       time.Duration
	rtt              time.Duration // slowest leg
	statsRTT         time.Duration
	reqBytes         int
	respBytes        int
}

type tracer struct {
	e   *env
	rec *recorder
	m   map[string]float64

	run     *onlineRun
	ranges  *histo.Ranges
	conns   []*rawConn
	engines []func(q bitvec.Code, h int) // per shard: the engine work of one query
	closers []func()

	samples    []sample
	replayErrs int
}

func newTracer(e *env) *tracer {
	return &tracer{e: e, rec: newRecorder(), m: make(map[string]float64)}
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// prepare times the build-time steps and the engines, and leaves one engine
// per shard behind for the replays. It runs before any child starts.
func (tr *tracer) prepare(run *onlineRun) error {
	tr.run = run
	ss := run.ss
	tr.ranges = histo.NewRanges(codeBits, ss.pivots)
	tr.m["histo.pivots_s"] = ss.pivotsTime.Seconds()
	tr.m["gray.sort_s"] = ss.sortTime.Seconds()
	tr.m["core.stream_write_s"] = ss.writeTime.Seconds()
	tr.m["core.snapshot_bytes_per_code"] = float64(ss.bytes) / float64(len(run.codes))

	// Probes are the first queries partition 0 owns: the engines below are
	// shard 0's.
	var probes []bitvec.Code
	for _, q := range run.queries {
		if len(probes) == tr.e.sz.LayerProbes {
			break
		}
		if histo.PartitionID(ss.pivots, q) == 0 {
			probes = append(probes, q)
		}
	}

	var err error
	if run.spec.mutable {
		err = tr.prepareMutable(probes)
	} else {
		err = tr.prepareImmutable(probes)
	}
	if err != nil {
		return err
	}

	// The pointer build and its freeze over shard 0's codes: what an lsm
	// seal, a compaction and a MapReduce reducer pay per partition.
	rows := ss.part[0]
	pc := make([]bitvec.Code, len(rows))
	for j, i := range rows {
		pc[j] = run.codes[i]
	}
	var dyn *core.DynamicIndex
	tr.m["core.build_dynamic_s"] = timed(func() { dyn = core.BuildDynamic(pc, rows, core.Options{}) }).Seconds()
	tr.m["core.freeze_s"] = timed(func() { core.Freeze(dyn) }).Seconds()
	return nil
}

func tuplesOf(idx *core.FrozenIndex) ([]bitvec.Code, []int) {
	codes := make([]bitvec.Code, 0, idx.Len())
	ids := make([]int, 0, idx.Len())
	idx.Tuples(func(id int, c bitvec.Code) {
		ids = append(ids, id)
		codes = append(codes, c)
	})
	return codes, ids
}

// probeHA times the HA-Index walk over the probes.
func (tr *tracer) probeHA(idx core.Index, probes []bitvec.Code) float64 {
	sr := core.NewSearcher(idx)
	var work core.SearchStats
	tr.m["core.ha_search_ns"] = perProbe(probes, func(q bitvec.Code) {
		sr.Search(q, tr.run.spec.h)
		work.Add(sr.Stats)
	})
	n := float64(2 * len(probes)) // perProbe makes two passes
	tr.m["core.ha_dist_per_query"] = float64(work.DistanceComputations) / n
	tr.m["core.ha_nodes_per_query"] = float64(work.NodesVisited) / n
	return tr.m["core.ha_search_ns"]
}

// perProbe runs f over the probes twice and returns the second pass's mean
// nanoseconds per probe: the first pass sizes scratch and warms caches, as
// a serving engine's are.
func perProbe(probes []bitvec.Code, f func(q bitvec.Code)) float64 {
	var d time.Duration
	for pass := 0; pass < 2; pass++ {
		d = timed(func() {
			for _, q := range probes {
				f(q)
			}
		})
	}
	return float64(d.Nanoseconds()) / float64(len(probes))
}

// prepareImmutable repeats, per shard, what server.New does under -engine
// auto, timing each step; shard 0's engines are then probed one by one.
func (tr *tracer) prepareImmutable(probes []bitvec.Code) error {
	h := tr.run.spec.h
	var mapT, mihT, calT []time.Duration
	for m, path := range tr.run.ss.paths {
		var idx *core.FrozenIndex
		var err error
		mapT = append(mapT, timed(func() { _, idx, err = wire.MapSnapshotFile(path) }))
		if err != nil {
			return err
		}
		tr.closers = append(tr.closers, func() { idx.Close() })
		codes, ids := tuplesOf(idx)
		var mi *mih.Index
		mihT = append(mihT, timed(func() { mi, err = mih.Build(codes, ids, mih.Options{}) }))
		if err != nil {
			return err
		}
		var pl *planner.Planner
		calT = append(calT, timed(func() {
			pl, err = planner.New(planner.Engines{HA: idx, MIH: core.AsIndex(mi), Codes: codes, IDs: ids}, planner.Options{Seed: 1})
		}))
		if err != nil {
			return err
		}
		tr.engines = append(tr.engines, func(q bitvec.Code, h int) { pl.Select(q, h) })
		if m != 0 || len(probes) == 0 {
			continue
		}

		tr.m["mih.size_bytes"] = float64(mi.SizeBytes())
		msr := core.NewSearcher(core.AsIndex(mi))
		cost := [3]float64{
			planner.UseHA:   tr.probeHA(idx, probes),
			planner.UseMIH:  perProbe(probes, func(q bitvec.Code) { msr.Search(q, h) }),
			planner.UseScan: perProbe(probes, func(q bitvec.Code) { pl.SelectWith(planner.UseScan, q, h) }),
		}
		tr.m["mih.search_ns"] = cost[planner.UseMIH]
		tr.m["planner.scan_ns"] = cost[planner.UseScan]
		best := planner.UseHA
		for s := range cost {
			if cost[s] < cost[best] {
				best = planner.Strategy(s)
			}
		}

		// auto, then how often the planner picks the engine that was
		// fastest above, then the engine it picks most, forced, over the
		// same probes: the difference is what deciding costs.
		tr.m["planner.auto_ns"] = perProbe(probes, func(q bitvec.Code) { pl.Select(q, h) })
		const decisions = 2048
		var picks [3]int
		for i := 0; i < decisions; i++ {
			picks[pl.Plan(h).Strategy]++
		}
		tr.m["planner.hit_ratio"] = float64(picks[best]) / decisions
		usual := planner.UseHA
		for s := range picks {
			if picks[s] > picks[usual] {
				usual = planner.Strategy(s)
			}
		}
		forced := perProbe(probes, func(q bitvec.Code) { pl.SelectWith(usual, q, h) })
		tr.m["planner.pick_overhead_ns"] = tr.m["planner.auto_ns"] - forced
	}
	tr.m["wire.map_snapshot_s"] = medianDur(mapT).Seconds()
	tr.m["mih.build_s"] = medianDur(mihT).Seconds()
	tr.m["planner.calibrate_s"] = medianDur(calT).Seconds()

	var loadErr error
	tr.m["server.load_s"] = timed(func() {
		var s *server.Server
		if s, loadErr = server.LoadSnapshotFile(tr.run.ss.paths[0], server.Options{Engine: "auto", Mmap: true}); loadErr == nil {
			s.Close()
		}
	}).Seconds()
	return loadErr
}

// lsm thresholds haserve -mutable runs with when no flag names them.
const (
	memtableMax = 4096
	compactAt   = 4
)

// prepareMutable bootstraps an lsm.Shard per partition the way haserve
// -mutable does, then replays the mutation script on shard 0's with seals
// and compactions run in the foreground at the default thresholds, so each
// is timed on its own.
func (tr *tracer) prepareMutable(probes []bitvec.Code) error {
	h := tr.run.spec.h
	boot := func(path string) (wire.SnapshotMeta, *lsm.Shard, error) {
		meta, idx, err := wire.ReadSnapshotFile(path)
		if err != nil {
			return meta, nil, err
		}
		sh := lsm.New(meta.Length, lsm.Options{MemtableMax: -1, CompactAt: -1})
		return meta, sh, sh.Bootstrap(idx)
	}
	var loadErr error
	tr.m["server.load_s"] = timed(func() {
		meta, sh, err := boot(tr.run.ss.paths[0])
		if loadErr = err; err != nil {
			return
		}
		var s *server.Server
		if s, loadErr = server.NewMutable(meta, sh, server.Options{}); loadErr == nil {
			s.Close()
		}
	}).Seconds()
	if loadErr != nil {
		return loadErr
	}

	var shs []*lsm.Shard
	for _, path := range tr.run.ss.paths {
		_, sh, err := boot(path)
		if err != nil {
			return err
		}
		tr.closers = append(tr.closers, sh.Close)
		tr.engines = append(tr.engines, func(q bitvec.Code, h int) { sh.Search(q, h) })
		shs = append(shs, sh)
	}
	if _, idx, err := wire.MapSnapshotFile(tr.run.ss.paths[0]); err == nil {
		if len(probes) > 0 {
			tr.probeHA(idx, probes)
		}
		idx.Close()
	}

	sh := shs[0]
	sc := newScript(tr.run.codes, tr.e.seed+1, tr.e.sz.LiveCap)
	var ins, del, search, seal, compact time.Duration
	var nIns, nDel, nSearch int
	for sh.Stats().Compactions == 0 && sc.requests < 4*memtableMax {
		ids, codes := sc.next()
		if codes == nil {
			del += timed(func() {
				for _, id := range ids {
					sh.Delete(id)
				}
			})
			nDel += len(ids)
		} else {
			ins += timed(func() {
				for i, id := range ids {
					sh.Insert(id, codes[i])
				}
			})
			nIns += len(ids)
		}
		sc.applied(ids, codes)
		if len(probes) > 0 {
			q := probes[nSearch%len(probes)]
			search += timed(func() { sh.Search(q, h) })
			nSearch++
		}
		if st := sh.Stats(); st.MemtableSize >= memtableMax {
			seal += timed(func() { sh.Seal(false) })
			if sh.Stats().Segments >= compactAt {
				compact += timed(sh.Compact)
			}
		}
	}
	st := sh.Stats()
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	tr.m["lsm.insert_ns"] = per(ins, int64(nIns))
	tr.m["lsm.delete_ns"] = per(del, int64(nDel))
	tr.m["lsm.search_ns"] = per(search, int64(nSearch))
	tr.m["lsm.seal_s"] = per(seal, st.Seals) / 1e9
	tr.m["lsm.compact_s"] = per(compact, st.Compactions) / 1e9
	tr.m["lsm.seals"] = float64(st.Seals)
	tr.m["lsm.compactions"] = float64(st.Compactions)
	tr.m["lsm.segments"] = float64(st.Segments)
	return nil
}

// attach connects the replay path to the running children and hooks caller
// A, whose sampled requests are replayed from then on.
func (tr *tracer) attach(run *onlineRun, kids []*child) error {
	for _, c := range kids {
		rc, err := dialRaw(c.addr)
		if err != nil {
			return err
		}
		tr.conns = append(tr.conns, rc)
	}
	run.searchers[0].sampled = tr.replay
	return nil
}

func (tr *tracer) detach() {
	for _, c := range tr.conns {
		c.conn.Close()
	}
	for _, f := range tr.closers {
		f()
	}
}

// replay repeats one live request step by step and records a span per step.
// Each step's duration is measured; its position under the live request's
// span is rebuilt from the order the Router works in.
func (tr *tracer) replay(seq int, qs []bitvec.Code, start, end time.Time) {
	h := tr.run.spec.h
	s := sample{queries: len(qs)}
	sub := make([][]bitvec.Code, shards)
	s.route = timed(func() {
		var parts []int
		for _, q := range qs {
			parts = tr.ranges.Route(parts[:0], q, h)
			for _, m := range parts {
				sub[m] = append(sub[m], q)
			}
			s.shardsHit += len(parts)
		}
	})
	payloads := make([][]byte, shards)
	s.encodeReq = timed(func() {
		for m := range sub {
			if len(sub[m]) > 0 {
				payloads[m] = wire.SearchReq{H: h, Queries: sub[m]}.Append(nil)
			}
		}
	})

	type leg struct {
		m                            int
		rtt                          time.Duration
		decodeReq, engine, encodeRsp time.Duration
	}
	var legs []leg
	slow := -1
	for m, p := range payloads {
		if p == nil {
			continue
		}
		t, resp, rtt, err := tr.conns[m].roundTrip(wire.MsgSearch, p)
		if err != nil || t != wire.MsgSearchOK {
			tr.replayErrs++
			return
		}
		l := leg{m: m, rtt: rtt}
		s.reqBytes += len(p)
		s.respBytes += len(resp)
		var parsed wire.SearchResp
		s.decodeResp += timed(func() { parsed, err = wire.ParseSearchResp(resp) })
		if err != nil {
			tr.replayErrs++
			return
		}
		// The server's side of the same frames, repeated here.
		l.decodeReq = timed(func() { wire.ParseSearchReq(p, codeBits) })
		l.encodeRsp = timed(func() { parsed.Append(nil) })
		l.engine = timed(func() {
			for _, q := range sub[m] {
				tr.engines[m](q, h)
			}
		})
		s.decodeReq += l.decodeReq
		s.encodeResp += l.encodeRsp
		legs = append(legs, l)
		if slow < 0 || rtt > legs[slow].rtt {
			slow = len(legs) - 1
		}
	}
	if slow < 0 {
		return
	}
	s.rtt = legs[slow].rtt
	// The framing and syscall floor: a frame that asks for no index work.
	if t, _, rtt, err := tr.conns[legs[slow].m].roundTrip(wire.MsgStats, nil); err == nil && t == wire.MsgStatsOK {
		s.statsRTT = rtt
	}

	rec := tr.rec
	at := rec.since(start)
	s.reqSpan = rec.add(-1, seq, "client.Router.SearchBatch", at, rec.since(end), false)
	step := func(parent int, name string, d time.Duration) int {
		id := rec.add(parent, seq, name, at, at+d.Nanoseconds(), true)
		at += d.Nanoseconds()
		return id
	}
	step(s.reqSpan, "histo.Ranges.Route", s.route)
	step(s.reqSpan, "wire.SearchReq.Append", s.encodeReq)
	fanOut := at
	for i, l := range legs {
		at = fanOut
		id := rec.add(s.reqSpan, seq, fmt.Sprintf("wire.WriteFrame+ReadFrame shard %d", l.m), at, at+l.rtt.Nanoseconds(), true)
		step(id, "wire.ParseSearchReq", l.decodeReq)
		step(id, "planner.Select", l.engine)
		step(id, "wire.SearchResp.Append", l.encodeRsp)
		if i == slow {
			s.legSpan = id
		}
	}
	at = fanOut + s.rtt.Nanoseconds()
	step(s.reqSpan, "wire.ParseSearchResp", s.decodeResp)
	tr.samples = append(tr.samples, s)
}

// collect turns the samples, the spans and the public counters into the
// per-layer metrics, and writes the spans out.
func (tr *tracer) collect(run *onlineRun, routers []*client.Router) error {
	if len(tr.samples) == 0 {
		return fmt.Errorf("traced run replayed no request (%d replay errors)", tr.replayErrs)
	}
	tr.rec.mu.Lock()
	self := selfTimes(tr.rec.spans)
	tr.rec.mu.Unlock()

	col := func(f func(s sample) float64) []float64 {
		out := make([]float64, len(tr.samples))
		for i, s := range tr.samples {
			out[i] = f(s)
		}
		return out
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	tr.m["client.self_us"] = us(median(col(func(s sample) float64 { return float64(self[s.reqSpan]) })))
	tr.m["server.self_us"] = us(median(col(func(s sample) float64 { return float64(self[s.legSpan]) })))
	tr.m["server.shard_rtt_us"] = us(median(col(func(s sample) float64 { return ns(s.rtt) })))
	tr.m["wire.stats_rtt_us"] = us(median(col(func(s sample) float64 { return ns(s.statsRTT) })))
	tr.m["histo.route_ns"] = median(col(func(s sample) float64 { return ns(s.route) / float64(s.queries) }))
	tr.m["histo.shards_per_query"] = mean(col(func(s sample) float64 { return float64(s.shardsHit) / float64(s.queries) }))
	tr.m["wire.encode_req_ns"] = median(col(func(s sample) float64 { return ns(s.encodeReq) }))
	tr.m["wire.decode_req_ns"] = median(col(func(s sample) float64 { return ns(s.decodeReq) }))
	tr.m["wire.encode_resp_ns"] = median(col(func(s sample) float64 { return ns(s.encodeResp) }))
	tr.m["wire.decode_resp_ns"] = median(col(func(s sample) float64 { return ns(s.decodeResp) }))
	// Byte counts over a fixed prefix of the samples, so they repeat exactly
	// however many requests the window fitted.
	fixed := tr.samples
	if len(fixed) > exactSamples {
		fixed = fixed[:exactSamples]
	}
	for _, s := range fixed {
		tr.m["wire.req_bytes"] += float64(s.reqBytes) / float64(len(fixed))
		tr.m["wire.resp_bytes"] += float64(s.respBytes) / float64(len(fixed))
	}

	var routed, pruned, retries int64
	for _, r := range routers {
		st := r.Stats()
		routed += st.QueriesRouted
		pruned += st.QueriesPruned
		retries += st.Retries
	}
	tr.m["bitvec.scan_ns_per_code"] = run.orc.scanNsPerCode(run.base.scanQPS(), callers)
	tr.m["client.retries"] = float64(retries)
	if routed+pruned > 0 {
		tr.m["histo.pruned_ratio"] = float64(pruned) / float64(routed+pruned)
	}
	stats, err := routers[0].ShardStats()
	if err != nil {
		return err
	}
	for _, st := range stats {
		tr.m["server.admission_p50_ns"] += float64(st.AdmissionP50Ns) / float64(len(stats))
		tr.m["server.latency_p50_us"] += us(float64(st.LatencyP50Ns)) / float64(len(stats))
		tr.m["server.errors"] += float64(st.Errors)
	}
	if tr.e.traceOut != "" {
		return tr.rec.write(tr.e.traceOut)
	}
	return nil
}

// exactSamples is how many leading samples the exact byte counts average.
const exactSamples = 32
