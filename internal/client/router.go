// Package client is the query-side of the serving subsystem: a Router that
// fans Hamming-select and top-k queries out over the shard servers of a
// Gray-partitioned HA-Index deployment. Routing uses the same pivots the
// shards were built from — learned from the shards' own handshakes — through
// histo.Ranges, so a query only visits shards whose Gray range can contain a
// match within the threshold. Each shard may have several replicas. Searches,
// top-k and stats rotate round-robin over them, and an attempt that fails in
// transport moves on to the next replica in that order after an exponential,
// jittered backoff; mutations take the replicas in list order, and both skip
// a replica refused for serving another partition or build. An error frame is
// the shard's answer and ends the request: every replica shares the build
// that decided it. A replica that answers MsgShed is overloaded, not broken:
// the request backs off once and asks the next replica, and a second shed
// ends it with ErrShed.
package client

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/histo"
	"haindex/internal/obs"
	"haindex/internal/planner"
	"haindex/internal/wire"
)

// ErrShed marks a shard request abandoned because the shard answered MsgShed
// (it is overloaded) twice, or once with no time left to back off. Load
// generators match it with errors.Is to count shed traffic apart from
// failures — a shed is the server working as designed, not a fault.
var ErrShed = errors.New("client: request shed by overloaded shard")

// Options configures a Router. Its metrics are not an option: every router
// owns its registry, reachable via Router.Obs.
type Options struct {
	// MaxAttempts bounds tries per shard request across replicas (0 = 3).
	MaxAttempts int
	// Backoff is the base sleep before the second attempt; it doubles per
	// subsequent attempt, with equal jitter (the actual sleep is uniform in
	// [b/2, b]) so synchronized clients do not stampede a recovering shard in
	// lockstep. A shed is followed by one such sleep of the base (0 = 2ms).
	Backoff time.Duration
	// DialTimeout bounds connection establishment (0 = 2s).
	DialTimeout time.Duration
	// Timeout bounds one request round trip on a connection, and also the
	// total wall time of one shard request across retries and backoff
	// sleeps — a few failed attempts can no longer sleep far past it
	// (0 = 30s).
	Timeout time.Duration

	// Engine is the access-path hint attached to every search request: ""
	// or "auto" lets each segment of each shard run the engine its plan
	// picks; "ha", "mih", or "scan" forces that engine on every planned
	// segment of every shard — the one way to pin an engine.
	Engine string
}

// traceCapacity sizes the ring of recent SearchBatch traces kept for haquery
// -trace.
const traceCapacity = 16

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 2 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// Stats counts the router's fan-out and failure handling since creation;
// every field reads a counter on the router's registry (Router.Obs).
type Stats struct {
	// ShardRequests is how many shard round trips were issued (excluding
	// retries).
	ShardRequests int64
	// QueriesRouted and QueriesPruned split query×shard pairs into sent vs
	// skipped by the Gray-range lower bound.
	QueriesRouted int64
	QueriesPruned int64
	// Retries counts failed attempts that were retried on another replica
	// (or the same one, for single-replica shards).
	Retries int64
	// Sheds counts MsgShed answers received. The first of a request is
	// asked again after a backoff and does not count as a failed attempt or
	// a retry — the shard is healthy, just saturated.
	Sheds int64
	// BackoffWait is the total wall time spent sleeping before a retry or
	// after a shed.
	BackoffWait time.Duration
}

// Router fans queries across the shards of one deployment. Safe for
// concurrent use.
type Router struct {
	opts   Options
	engine int // wire engine hint attached to every SearchReq: the pinned planner.Strategy + 1
	length int
	pivots []bitvec.Code
	ranges *histo.Ranges
	shards []*shard // indexed by partition id

	// Observability: per-attempt latency histograms (overall and per
	// shard), every counter Stats reads, and a ring of recent SearchBatch
	// traces.
	reg         *obs.Registry
	tracer      *obs.Tracer
	histAttempt *obs.Histogram
	histShard   []*obs.Histogram // indexed by partition id
	cntRequests *obs.Counter
	cntRouted   *obs.Counter // queries_routed: query×shard pairs sent
	cntPruned   *obs.Counter // queries_pruned: pairs the Gray-range bound skipped
	cntRetries  *obs.Counter
	cntSheds    *obs.Counter
	cntBackoff  *obs.Counter // backoff_ns

	// Test seams: the retry loop tells time and sleeps through these so a
	// fake clock can pin down the backoff bounds deterministically.
	now        func() time.Time
	sleep      func(time.Duration)
	randInt63n func(int64) int64
}

// shard is one partition's replica set.
type shard struct {
	part     int
	label    string // "shardNN", the stem of its span names
	replicas []*replica
	// rrSeq moves the first replica of searches, top-k and stats along the
	// set, so they spread instead of pinning replica 0.
	rrSeq atomic.Uint64
}

// replica is one server address with at most one pooled connection; the
// mutex serializes the request/response conversation on it.
type replica struct {
	addr string
	opts Options
	// want is the snapshot header a handshake must show: the partition and
	// build of the shard the replica is listed under. Dial sets it once it has
	// learned them; until then (Parts 0) a handshake is not checked.
	want wire.SnapshotMeta

	mu    sync.Mutex
	conn  net.Conn
	br    *bufio.Reader
	hello wire.HelloOK

	// refused is set for good once a handshake shows another partition or
	// build than want; refusal, that handshake's error, is written before it.
	refused atomic.Bool
	refusal error
}

// Dial connects to a deployment. shardAddrs lists, per shard, the addresses
// of its replicas (all replicas of a shard serve the same partition
// snapshot). The router handshakes one replica per shard, learns the pivot
// list and partition layout from the shards themselves, and verifies the
// deployment is consistent: n shards name n distinct partitions of n, all of
// one build (wire.SnapshotMeta.SameBuild). From then on every handshake
// of a replica, its first or a redial, must show the partition and build its
// shard was learned as, or the attempt fails and the request moves on to the
// next replica. A Dial that fails closes every connection it made.
func Dial(shardAddrs [][]string, opts Options) (_ *Router, err error) {
	opts = opts.withDefaults()
	if len(shardAddrs) == 0 {
		return nil, fmt.Errorf("client: no shards")
	}
	pin, err := planner.ParseStrategy(opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	r := newRouter(opts, len(shardAddrs))
	r.engine = int(pin) + wire.EngineHA
	seen := make(map[int]string) // part -> the replica that answered for it
	var build wire.SnapshotMeta  // the first shard's, which every other must share
	var listed []*shard          // in list order, closed again if Dial fails
	defer func() {
		if err != nil {
			for _, sh := range listed {
				for _, rp := range sh.replicas {
					rp.close()
				}
			}
		}
	}()
	for i, addrs := range shardAddrs {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("client: shard %d has no replicas", i)
		}
		sh := &shard{part: -1}
		for _, addr := range addrs {
			sh.replicas = append(sh.replicas, &replica{addr: addr, opts: opts})
		}
		listed = append(listed, sh)
		var hello wire.HelloOK
		var from string
		for _, rp := range sh.replicas {
			if hello, err = rp.handshake(); err == nil {
				from = rp.addr
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("client: shard %d unreachable: %w", i, err)
		}
		if hello.Parts != len(shardAddrs) {
			return nil, fmt.Errorf("client: shard %d says the deployment has %d partitions, but %d shards were given",
				i, hello.Parts, len(shardAddrs))
		}
		if prev, dup := seen[hello.Part]; dup {
			return nil, fmt.Errorf("client: partition %d served by both %s and %s", hello.Part, prev, from)
		}
		if i == 0 {
			build = hello.SnapshotMeta
		} else if !hello.SameBuild(build) {
			return nil, fmt.Errorf("client: %s (%d parts, %d-bit) is not of the build %s serves (%d parts, %d-bit, and its pivots)",
				from, hello.Parts, hello.Length, seen[build.Part], build.Parts, build.Length)
		}
		seen[hello.Part] = from
		for _, rp := range sh.replicas {
			rp.want = hello.SnapshotMeta
		}
		sh.part, sh.label = hello.Part, fmt.Sprintf("shard%02d", hello.Part)
		r.shards[hello.Part] = sh
	}
	r.length, r.pivots = build.Length, build.Pivots
	r.ranges = histo.NewRanges(r.length, r.pivots)
	return r, nil
}

// newRouter returns a router for parts partitions, with its registry, its
// instruments and the real clock, but no shards yet.
func newRouter(opts Options, parts int) *Router {
	reg := obs.NewRegistry()
	r := &Router{
		opts:       opts,
		shards:     make([]*shard, parts),
		reg:        reg,
		tracer:     obs.NewTracer(traceCapacity),
		histShard:  make([]*obs.Histogram, parts),
		now:        time.Now,
		sleep:      time.Sleep,
		randInt63n: rand.Int63n,
	}
	r.histAttempt = reg.Histogram("attempt_ns")
	for m := range r.histShard {
		r.histShard[m] = reg.Histogram(fmt.Sprintf("shard%02d.attempt_ns", m))
	}
	r.cntRequests = reg.Counter("shard_requests")
	r.cntRouted = reg.Counter("queries_routed")
	r.cntPruned = reg.Counter("queries_pruned")
	r.cntRetries = reg.Counter("retries")
	r.cntSheds = reg.Counter("sheds")
	r.cntBackoff = reg.Counter("backoff_ns")
	return r
}

// Length returns the deployment's code length in bits.
func (r *Router) Length() int { return r.length }

// Parts returns the number of partitions.
func (r *Router) Parts() int { return len(r.shards) }

// Stats returns a snapshot of the router counters.
func (r *Router) Stats() Stats {
	return Stats{
		ShardRequests: r.cntRequests.Value(),
		QueriesRouted: r.cntRouted.Value(),
		QueriesPruned: r.cntPruned.Value(),
		Retries:       r.cntRetries.Value(),
		Sheds:         r.cntSheds.Value(),
		BackoffWait:   time.Duration(r.cntBackoff.Value()),
	}
}

// Obs returns the router's own metric registry: its counters and the attempt
// latency histograms, attempt_ns and shardNN.attempt_ns per partition.
func (r *Router) Obs() *obs.Registry { return r.reg }

// Tracer returns the ring of recent SearchBatch traces; Tracer().Slowest()
// is what haquery -trace prints.
func (r *Router) Tracer() *obs.Tracer { return r.tracer }

// Close closes all pooled connections.
func (r *Router) Close() {
	for _, sh := range r.shards {
		for _, rp := range sh.replicas {
			rp.close()
		}
	}
}

// Search returns the sorted ids of all tuples within Hamming distance h of
// q, across every shard whose Gray range can contain one.
func (r *Router) Search(q bitvec.Code, h int) ([]int, error) {
	res, err := r.SearchBatch([]bitvec.Code{q}, h)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchBatch answers a batch of Hamming-select queries. results[i] holds
// the sorted ids matching queries[i] (nil when none). Shards are visited
// concurrently, each receiving only the queries it can answer.
func (r *Router) SearchBatch(queries []bitvec.Code, h int) ([][]int, error) {
	if err := r.checkQueries(queries); err != nil {
		return nil, err
	}
	if h < 0 || h > r.length {
		return nil, fmt.Errorf("client: threshold %d out of range for %d-bit codes", h, r.length)
	}
	tr := obs.NewTrace("search-batch")
	defer r.tracer.Add(tr)

	// Route each query to the shards whose Gray range can hold a match.
	routeSpan := tr.Start("route", 0)
	perShard := make([][]int, len(r.shards)) // query indexes per shard
	var parts []int
	for i, q := range queries {
		parts = r.ranges.Route(parts[:0], q, h)
		for _, m := range parts {
			perShard[m] = append(perShard[m], i)
		}
		r.cntRouted.Add(int64(len(parts)))
		r.cntPruned.Add(int64(len(r.shards) - len(parts)))
	}
	tr.End(routeSpan)

	legs := make([]leg, 0, len(perShard))
	for m, qidx := range perShard {
		if len(qidx) == 0 {
			continue
		}
		sub := make([]bitvec.Code, len(qidx))
		for j, i := range qidx {
			sub[j] = queries[i]
		}
		sh := r.shards[m]
		legs = append(legs, leg{
			sh: sh, t: wire.MsgSearch, want: wire.MsgSearchOK,
			payload: wire.SearchReq{H: h, Engine: r.engine, Queries: sub}.Append(nil),
			// Static parts: the request path formats nothing.
			label: sh.label + " (" + strconv.Itoa(len(sub)) + " queries)",
		})
	}
	r.fanOut(legs, routeRotate, tr)
	span := tr.Start("decode+merge", 0)
	results, err := mergeSearch(legs, perShard, len(queries))
	tr.End(span)
	return results, err
}

// mergeSearch decodes the legs' answers and merges them per query. Each leg
// holds one run per query it was sent, ascending because the wire carries
// unsigned deltas, and partitions are disjoint, so no id is in two runs. A
// query that one shard answered keeps that shard's decoded run as it is; the
// others are merged into one slab for the request, so the reply costs a
// constant number of allocations and time linear in the ids.
func mergeSearch(legs []leg, perShard [][]int, queries int) ([][]int, error) {
	table := make([][]int, queries*len(legs)) // query-major: a row is one query's run from every leg
	runsOf := func(i int) [][]int { return nonEmpty(table[i*len(legs) : (i+1)*len(legs)]) }
	for l := range legs {
		lg := &legs[l]
		if lg.err != nil {
			return nil, lg.err
		}
		qidx := perShard[lg.sh.part]
		resp, err := wire.ParseSearchResp(lg.resp)
		if err != nil {
			return nil, err
		}
		if len(resp.IDs) != len(qidx) {
			return nil, fmt.Errorf("client: shard %d answered %d of %d queries", lg.sh.part, len(resp.IDs), len(qidx))
		}
		for j, i := range qidx {
			table[i*len(legs)+l] = resp.IDs[j]
		}
	}
	slab := 0
	for i := 0; i < queries; i++ {
		if runs := runsOf(i); len(runs) > 1 {
			for _, run := range runs {
				slab += len(run)
			}
		}
	}
	out := make([]int, 0, slab)
	results := make([][]int, queries)
	for i := range results {
		switch runs := runsOf(i); len(runs) {
		case 0:
		case 1:
			results[i] = runs[0]
		default:
			start := len(out)
			out = mergeRuns(out, runs)
			results[i] = out[start:len(out):len(out)]
		}
	}
	return results, nil
}

// nonEmpty moves the non-empty runs to the front, in order, and returns them;
// the rest is cleared, so a second call finds the same runs.
func nonEmpty(runs [][]int) [][]int {
	n := 0
	for _, run := range runs {
		if len(run) > 0 {
			runs[n] = run
			n++
		}
	}
	clear(runs[n:])
	return runs[:n]
}

// mergeRuns appends to dst the ascending merge of runs, each ascending, with
// one copy of a value two runs hold: an id that a cross-partition upsert had
// live on two shards while a search's legs were in flight. Every run is
// merged from the back into what the ones before it left, in place: dst grows
// by the run's length, and the write index stays ahead of the read index
// until one side is used up; a value both sides held leaves a gap, closed
// once the run is in. Two runs, a deployment's usual fan-out, cost one
// comparison an element.
func mergeRuns[T cmp.Ordered](dst []T, runs [][]T) []T {
	base := len(dst)
	for _, run := range runs {
		i, j := len(dst)-1, len(run)-1
		dst = append(dst, run...) // for the room; the loop overwrites it
		w := len(dst) - 1
		for ; i >= base && j >= 0; w-- {
			// Which side is next is a coin toss for ids hashed across shards:
			// select the value and step the indexes without a branch on it.
			a, b := dst[i], run[j]
			dst[w] = max(a, b)
			i -= b2i(a >= b)
			j -= b2i(b >= a)
		}
		copy(dst[base:], run[:j+1]) // what is left of run is under everything merged
		end := i + j + 2            // where the leftovers end, under any gap
		dst = dst[:end+copy(dst[end:], dst[w+1:])]
	}
	return dst
}

// b2i is 1 for true and 0 for false, as a conditional move.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TopK returns the k nearest ids (with Hamming distances) per query,
// ordered by (distance, id). Every shard is consulted — a k-nearest result
// has no a-priori distance bound to prune with.
func (r *Router) TopK(queries []bitvec.Code, k int) ([][]int, [][]int, error) {
	if err := r.checkQueries(queries); err != nil {
		return nil, nil, err
	}
	if k <= 0 {
		return nil, nil, fmt.Errorf("client: k must be positive")
	}
	payload := wire.TopKReq{K: k, Queries: queries}.Append(nil)
	legs := make([]leg, len(r.shards))
	for m, sh := range r.shards {
		r.cntRouted.Add(int64(len(queries)))
		legs[m] = leg{sh: sh, t: wire.MsgTopK, want: wire.MsgTopKOK, payload: payload}
	}
	r.fanOut(legs, routeRotate, nil)
	resps := make([]wire.TopKResp, len(legs))
	for m := range legs {
		lg := &legs[m]
		if lg.err == nil {
			resps[m], lg.err = wire.ParseTopKResp(lg.resp)
		}
		if lg.err == nil && len(resps[m].IDs) != len(queries) {
			lg.err = fmt.Errorf("client: shard %d answered %d of %d queries", m, len(resps[m].IDs), len(queries))
		}
		if lg.err != nil {
			return nil, nil, lg.err
		}
	}
	// Merge per query. A shard's list is (distance, id)-ordered and both fit
	// in 31 bits (wire.ParseTopKResp), so packed as distance<<32|id each list
	// is an ascending run of keys and the k nearest are the first k distinct
	// ids of the merge: an id two shards returned, because a cross-partition
	// upsert had it live on both, keeps its first, nearest key.
	ids := make([][]int, len(queries))
	dists := make([][]int, len(queries))
	var keys, merged []int64
	runs := make([][]int64, len(resps))
	seen := make(map[int64]struct{})
	for i := range queries {
		total := 0
		for _, resp := range resps {
			total += len(resp.IDs[i])
		}
		keys = slices.Grow(keys[:0], total) // the runs below must not move
		for m, resp := range resps {
			start := len(keys)
			for j, id := range resp.IDs[i] {
				keys = append(keys, int64(resp.Dists[i][j])<<32|int64(id))
			}
			runs[m] = keys[start:]
		}
		merged = mergeRuns(merged[:0], runs)
		clear(seen)
		n := 0
		for _, key := range merged {
			if n == k {
				break
			}
			if _, dup := seen[key&math.MaxUint32]; !dup {
				seen[key&math.MaxUint32] = struct{}{}
				merged[n] = key
				n++
			}
		}
		merged = merged[:n]
		if len(merged) == 0 {
			continue
		}
		ids[i], dists[i] = make([]int, len(merged)), make([]int, len(merged))
		for j, key := range merged {
			ids[i][j], dists[i][j] = int(key&math.MaxUint32), int(key>>32)
		}
	}
	return ids, dists, nil
}

// ShardStats asks every shard for its serving counters.
func (r *Router) ShardStats() ([]wire.StatsResp, error) {
	out := make([]wire.StatsResp, len(r.shards))
	legs := make([]leg, len(r.shards))
	for m, sh := range r.shards {
		legs[m] = leg{sh: sh, t: wire.MsgStats, want: wire.MsgStatsOK}
	}
	r.fanOut(legs, routeRotate, nil)
	for m := range legs {
		lg := &legs[m]
		if lg.err == nil {
			out[m], lg.err = wire.ParseStatsResp(lg.resp)
		}
	}
	if err := firstErr(legs); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *Router) checkQueries(queries []bitvec.Code) error {
	for i, q := range queries {
		if q.Len() != r.length {
			return fmt.Errorf("client: query %d is %d-bit, deployment serves %d-bit codes", i, q.Len(), r.length)
		}
	}
	return nil
}

// routeMode says which replica a request starts on.
type routeMode int

const (
	// routeRotate round-robins the first replica across the shard's set:
	// searches, top-k and stats.
	routeRotate routeMode = iota
	// routePrimary pins list order: replica 0 first, the rest as failovers.
	// Mutations use it so a replicated deployment's writes keep hitting one
	// replica instead of scattering divergence across the set.
	routePrimary
)

// leg is one shard's share of a fan-out: the request frame to send and, once
// fanOut returns, the answer (resp, or err).
type leg struct {
	sh      *shard
	t, want wire.MsgType // request type and the OK frame that answers it
	payload []byte
	label   string // span name under the trace root, when the fan-out is traced

	resp []byte
	err  error

	// The request in progress: its span, the replica it starts on (the rest
	// follow in list order, wrapping) and its first attempt, on rp (begun at
	// t0), which retry judges when it did not answer with the OK frame.
	span, attempt obs.SpanID
	first         int
	rp            *replica
	t0            time.Time
	respType      wire.MsgType
}

// begin counts one shard request and picks the replica it starts on.
func (r *Router) begin(lg *leg, mode routeMode) {
	r.cntRequests.Inc()
	if n := len(lg.sh.replicas); mode == routeRotate && n > 1 {
		lg.first = int((lg.sh.rrSeq.Add(1) - 1) % uint64(n))
	}
}

// fanOut runs one request's legs, which must be in ascending shard order.
// Every leg's first attempt is pipelined on the calling goroutine: the frames
// are written shard by shard, then the answers are read in the same order, so
// a request costs one write and one wake-up per leg each way and no goroutine
// hand-off. A leg holds its replica's conversation lock from write to read;
// taking the locks in shard order is what keeps concurrent requests on one
// Router from deadlocking. Only a leg whose first attempt failed in transport
// or was shed enters the retry loop — side by side when there are several.
// Any other frame is the shard's answer: an error frame is fixed by the
// request and the build, which every replica of the shard shares, so another
// attempt would only repeat it.
func (r *Router) fanOut(legs []leg, mode routeMode, tr *obs.Trace) {
	start := r.now()
	for i := range legs {
		lg := &legs[i]
		r.begin(lg, mode)
		lg.first, _ = lg.sh.pick(lg.first) // every replica refused: attempt 0 fails undialled
		lg.span = tr.Start(lg.label, 0)
		lg.rp = lg.sh.replicas[lg.first]
		lg.attempt = tr.Start("attempt 0 → "+lg.rp.addr, lg.span)
		lg.t0 = time.Now()
		lg.rp.mu.Lock()
		lg.err = lg.rp.sendLocked(lg.t, lg.payload)
	}
	var slow []*leg
	late := false
	for i := range legs {
		lg := &legs[i]
		if lg.err == nil {
			if late {
				// The sibling that timed out ran this leg's deadline down too;
				// an answer that is already here still counts.
				lg.rp.conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
			}
			lg.respType, lg.resp, lg.err = lg.rp.recvLocked()
			late = late || errors.Is(lg.err, os.ErrDeadlineExceeded)
		}
		lg.rp.mu.Unlock()
		r.observe(lg.sh, lg.t0)
		tr.End(lg.attempt)
		if lg.err == nil && lg.respType != wire.MsgShed {
			tr.End(lg.span)
			continue
		}
		slow = append(slow, lg)
	}
	if len(slow) > 0 {
		var wg sync.WaitGroup
		for _, lg := range slow[1:] {
			wg.Add(1)
			go func(lg *leg) {
				defer wg.Done()
				r.retry(lg, start, tr)
			}(lg)
		}
		r.retry(slow[0], start, tr)
		wg.Wait()
		for _, lg := range slow {
			tr.End(lg.span)
		}
	}
	for i := range legs {
		lg := &legs[i]
		if lg.err != nil || lg.respType == lg.want {
			continue
		}
		if lg.respType != wire.MsgError {
			lg.err = fmt.Errorf("client: shard %d answered %s", lg.sh.part, lg.respType)
			continue
		}
		em, err := wire.ParseErrorMsg(lg.resp)
		if err == nil {
			err = errors.New("server error: " + em.Msg)
		}
		lg.err = fmt.Errorf("client: shard %d: %w", lg.sh.part, err)
	}
}

// retry carries one leg to an answer (lg.respType and resp, or err) with
// retry and backoff. Each try goes to the next replica in list order, wrapping,
// from the leg's first, past refused ones (all refused: it fails at once): a
// single-replica shard retries in place. The first attempt, which fanOut
// made, is judged as attempt 0, not sent again. Only a transport error is a
// failed attempt; any frame but MsgShed, an error frame too, is the answer.
// The whole loop — attempts plus backoff sleeps, from the request's start —
// is bounded by Opts.Timeout of wall time, so a run of failures cannot sleep
// far past the per-request budget.
//
// A MsgShed answer is not a failure: the shard is healthy but saturated. The
// request sleeps one jittered Backoff, if its deadline leaves room, and asks
// the next replica without spending an attempt; a second shed, or no room to
// back off, ends it with an error wrapping ErrShed.
func (r *Router) retry(lg *leg, start time.Time, tr *obs.Trace) {
	sh, parent := lg.sh, lg.span
	deadline := start.Add(r.opts.Timeout)
	backoff := r.opts.Backoff
	next := lg.first + 1 // the replica the next try goes to, mod the set
	judged, shed := false, false
	var lastErr error
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if _, err := sh.pick(next); err != nil {
				lg.err = err
				return
			}
			d := r.jitter(backoff)
			if remain := deadline.Sub(r.now()); d > remain {
				lg.err = fmt.Errorf("client: shard %d: retry budget exhausted after %d attempts (timeout %v): %w",
					sh.part, attempt, r.opts.Timeout, lastErr)
				return
			}
			r.cntRetries.Inc()
			r.pause(d, "backoff attempt "+strconv.Itoa(attempt), parent, tr)
			backoff *= 2
		}
		var respType wire.MsgType
		var resp []byte
		var err error
		for {
			if !judged {
				judged = true
				respType, resp, err = lg.respType, lg.resp, lg.err
			} else {
				i, _ := sh.pick(next)
				rp := sh.replicas[i]
				next = i + 1
				sp := tr.Start("attempt "+strconv.Itoa(attempt)+" → "+rp.addr, parent)
				respType, resp, err = r.attempt(sh, rp, lg.t, lg.payload)
				tr.End(sp)
			}
			if err != nil || respType != wire.MsgShed {
				break
			}
			r.cntSheds.Inc()
			d := r.jitter(r.opts.Backoff)
			if shed || d > deadline.Sub(r.now()) {
				lg.err = fmt.Errorf("client: shard %d: %w", sh.part, ErrShed)
				return
			}
			shed = true
			r.pause(d, "shed backoff", parent, tr)
		}
		if err == nil {
			lg.respType, lg.resp, lg.err = respType, resp, nil
			return
		}
		lastErr = err
	}
	lg.err = fmt.Errorf("client: shard %d failed after %d attempts: %w", sh.part, r.opts.MaxAttempts, lastErr)
}

// pick returns the index of the first replica from i on, in list order and
// wrapping, not refused; if every one is, i mod the set and an error naming them.
func (sh *shard) pick(i int) (int, error) {
	n := len(sh.replicas)
	for k := 0; k < n; k++ {
		if j := (i + k) % n; !sh.replicas[j].refused.Load() {
			return j, nil
		}
	}
	addrs := ""
	for _, rp := range sh.replicas {
		addrs += " " + rp.addr
	}
	return i % n, fmt.Errorf("client: shard %d: every replica refused:%s", sh.part, addrs)
}

// jitter draws one backoff sleep for base b: uniform in [b/2, b] (equal
// jitter), so synchronized clients spread out instead of re-stampeding a
// recovering shard in lockstep.
func (r *Router) jitter(b time.Duration) time.Duration {
	return b/2 + time.Duration(r.randInt63n(int64(b/2)+1))
}

// pause sleeps d under a span named what and adds it to BackoffWait.
func (r *Router) pause(d time.Duration, what string, parent obs.SpanID, tr *obs.Trace) {
	sp := tr.Start(what, parent)
	r.sleep(d)
	tr.End(sp)
	r.cntBackoff.Add(int64(d))
}

// attempt performs one round trip on rp, under its conversation lock, and
// observes its latency.
func (r *Router) attempt(sh *shard, rp *replica, t wire.MsgType, payload []byte) (respType wire.MsgType, resp []byte, err error) {
	t0 := time.Now()
	rp.mu.Lock()
	if err = rp.sendLocked(t, payload); err == nil {
		respType, resp, err = rp.recvLocked()
	}
	rp.mu.Unlock()
	r.observe(sh, t0)
	return respType, resp, err
}

// observe records one finished attempt's latency in the per-attempt
// histograms (overall and per shard), win or lose — failed attempts cost real
// time too, and the distribution should show it.
func (r *Router) observe(sh *shard, t0 time.Time) {
	ns := int64(time.Since(t0))
	r.histAttempt.Record(ns)
	r.histShard[sh.part].Record(ns)
}

// handshake dials (if needed) and returns the shard's hello.
func (rp *replica) handshake() (wire.HelloOK, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.conn == nil {
		if err := rp.dialLocked(); err != nil {
			return wire.HelloOK{}, err
		}
	}
	return rp.hello, nil
}

// sendLocked writes one request frame on the pooled connection, redialing a
// lost one; rp.mu must be held until recvLocked has read the answer. Any error
// poisons the connection so the next attempt starts fresh.
func (rp *replica) sendLocked(t wire.MsgType, payload []byte) error {
	if rp.conn == nil {
		if err := rp.dialLocked(); err != nil {
			return err
		}
	}
	rp.conn.SetDeadline(time.Now().Add(rp.opts.Timeout))
	err := wire.WriteFrame(rp.conn, t, payload)
	if err != nil {
		rp.closeLocked()
	}
	return err
}

// recvLocked reads the answer to the frame sendLocked wrote.
func (rp *replica) recvLocked() (wire.MsgType, []byte, error) {
	respType, resp, err := wire.ReadFrame(rp.br)
	if err != nil {
		rp.closeLocked()
	}
	return respType, resp, err
}

// dialLocked connects and handshakes; rp.mu must be held. A refused replica
// fails with its refusal, undialled.
func (rp *replica) dialLocked() (err error) {
	if rp.refused.Load() {
		return rp.refusal
	}
	conn, err := net.DialTimeout("tcp", rp.addr, rp.opts.DialTimeout)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(rp.opts.Timeout))
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.Hello{Version: wire.Version}.Append(nil)); err != nil {
		return err
	}
	respType, payload, err := wire.ReadFrame(br)
	if err != nil {
		return err
	}
	if respType == wire.MsgError {
		if em, perr := wire.ParseErrorMsg(payload); perr == nil {
			return fmt.Errorf("client: %s rejected handshake: %s", rp.addr, em.Msg)
		}
		return fmt.Errorf("client: %s rejected handshake", rp.addr)
	}
	if respType != wire.MsgHelloOK {
		return fmt.Errorf("client: %s answered handshake with %s", rp.addr, respType)
	}
	hello, err := wire.ParseHelloOK(payload)
	if err != nil {
		return err
	}
	if hello.Version != wire.Version {
		return fmt.Errorf("client: %s speaks protocol version %d, this client speaks %d", rp.addr, hello.Version, wire.Version)
	}
	if w := rp.want; w.Parts > 0 && (hello.Part != w.Part || !hello.SameBuild(w)) {
		rp.refusal = fmt.Errorf("client: %s serves partition %d, not partition %d of this deployment's build (parts, code length, pivots)",
			rp.addr, hello.Part, w.Part)
		rp.refused.Store(true)
		return rp.refusal
	}
	rp.conn, rp.br, rp.hello = conn, br, hello
	return nil
}

func (rp *replica) close() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.closeLocked()
}

func (rp *replica) closeLocked() {
	if rp.conn != nil {
		rp.conn.Close()
		rp.conn = nil
		rp.br = nil
	}
}
