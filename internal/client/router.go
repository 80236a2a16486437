// Package client is the query-side of the serving subsystem: a Router that
// fans Hamming-select and top-k queries out over the shard servers of a
// Gray-partitioned HA-Index deployment. Routing uses the same pivots the
// shards were built from — learned from the shards' own handshakes — through
// histo.Ranges, so a query only visits shards whose Gray range can contain a
// match within the threshold. Each shard may have several replicas; replica
// selection is cache-aware: rendezvous hashing on the request's packed
// result-cache key (internal/qcache) picks a preferred replica per request,
// so repeated queries land where their answers are already cached, and the
// failover order for retries is the rest of that ranking rather than list
// position. Requests retry across replicas with exponential backoff, an
// optional hedging policy races the best-ranked healthy standby when the
// primary is slow (the serving-layer analogue of the MapReduce runtime's
// speculative execution), and shed-backoff retries steer to the least-loaded
// other replica using the warmth/load signal replicas report in their stats.
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
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/histo"
	"haindex/internal/obs"
	"haindex/internal/qcache"
	"haindex/internal/wire"
)

// ErrShed marks a shard request abandoned because the shard kept answering
// MsgShed (it is overloaded) until the request's deadline ran out. Load
// generators match it with errors.Is to count shed traffic apart from
// failures — a shed is the server working as designed, not a fault.
var ErrShed = errors.New("client: request shed by overloaded shard")

// Options configures a Router.
type Options struct {
	// MaxAttempts bounds tries per shard request across replicas (0 = 3).
	MaxAttempts int
	// Backoff is the base sleep before the second attempt; it doubles per
	// subsequent attempt up to MaxBackoff, with equal jitter (the actual
	// sleep is uniform in [b/2, b]) so synchronized clients do not stampede
	// a recovering shard in lockstep (0 = 2ms).
	Backoff time.Duration
	// MaxBackoff caps one backoff sleep regardless of how many attempts
	// have failed (0 = 100ms).
	MaxBackoff time.Duration
	// HedgeAfter launches a speculative duplicate of an in-flight request
	// on the next replica when the first has not answered within this
	// budget; first answer wins and the loser is closed promptly. 0
	// disables hedging; it also stays off for single-replica shards.
	HedgeAfter time.Duration
	// DialTimeout bounds connection establishment (0 = 2s).
	DialTimeout time.Duration
	// Timeout bounds one request round trip on a connection, and also the
	// total wall time of one shard request across retries and backoff
	// sleeps — a few failed attempts can no longer sleep far past it
	// (0 = 30s).
	Timeout time.Duration

	// Engine is the access-path hint attached to every search request: ""
	// or "auto" lets each shard route (its planner or configured mode);
	// "ha", "mih", or "scan" forces that engine on every shard. Forcing
	// requires the named engine to be enabled server-side; the shards
	// enforce it.
	Engine string
	// Priority is the admission class attached to every search request:
	// "" or "normal", "interactive" (2x the server's shed budget), or
	// "batch" (half).
	Priority string

	// Affinity selects the replica-routing policy. "" or "rendezvous" (the
	// default) routes each request to the replica that rendezvous hashing
	// of its packed result-cache key prefers, so the same query keeps
	// landing on the same warm cache while distinct queries spread across
	// the replica set. "none" rotates round-robin per shard with no
	// affinity — the naive split, kept for tests that need a deterministic
	// replica order.
	Affinity string
	// FailureCooldown is how long a replica that failed an attempt at the
	// transport level (dial refused, connection dropped) is demoted to the
	// tail of the rendezvous ranking, so fresh requests, failovers, and
	// hedges prefer standbys believed healthy (0 = 500ms).
	FailureCooldown time.Duration

	// Obs, when set, is the registry the router hangs its counters and
	// per-attempt latency histograms on; nil gives the router a private one
	// (reachable via Router.Obs).
	Obs *obs.Registry
	// TraceCapacity sizes the ring of recent SearchBatch traces kept for
	// haquery -trace (0 = 16).
	TraceCapacity int
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 2 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 100 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.TraceCapacity <= 0 {
		o.TraceCapacity = 16
	}
	if o.FailureCooldown <= 0 {
		o.FailureCooldown = 500 * time.Millisecond
	}
	return o
}

// Stats counts the router's fan-out and failure handling since creation.
type Stats struct {
	// ShardRequests is how many shard round trips were issued (excluding
	// hedges and retries).
	ShardRequests int64
	// QueriesRouted and QueriesPruned split query×shard pairs into sent vs
	// skipped by the Gray-range lower bound.
	QueriesRouted int64
	QueriesPruned int64
	// Retries counts failed attempts that were retried on another replica
	// (or the same one, for single-replica shards).
	Retries int64
	// Sheds counts MsgShed answers received. A shed is retried after a
	// backoff and does not count as a failed attempt or a retry — the
	// shard is healthy, just saturated. Steers counts the shed retries
	// that moved to a less-loaded sibling replica instead of returning to
	// the one that shed.
	Sheds  int64
	Steers int64
	// Hedges counts speculative duplicates launched; HedgeWins how many
	// answered before the primary; HedgeLosses how many legs lost the race
	// and were drained/closed (their work is the serving-layer analogue of
	// the MapReduce runtime's WastedBytes).
	Hedges      int64
	HedgeWins   int64
	HedgeLosses int64
	// BackoffWait is the total wall time spent sleeping between retry
	// attempts.
	BackoffWait time.Duration
}

// Snapshot extends Stats with the latency distributions the counters can't
// show: per-attempt round-trip percentiles, overall and per shard.
type Snapshot struct {
	Stats
	// Attempt summarizes every round-trip attempt the router issued
	// (including hedges and retries).
	Attempt obs.HistSummary
	// PerShard holds one attempt-latency summary per partition id.
	PerShard []obs.HistSummary
}

// Router fans queries across the shards of one deployment. Safe for
// concurrent use.
type Router struct {
	opts     Options
	engine   int // wire engine hint attached to every SearchReq
	priority int // wire admission class attached to every SearchReq
	length   int
	pivots   []bitvec.Code
	ranges   *histo.Ranges
	shards   []*shard // indexed by partition id

	shardRequests atomic.Int64
	queriesRouted atomic.Int64
	queriesPruned atomic.Int64
	retries       atomic.Int64
	sheds         atomic.Int64
	steers        atomic.Int64
	hedges        atomic.Int64
	hedgeWins     atomic.Int64
	hedgeLosses   atomic.Int64
	backoffWait   atomic.Int64 // nanoseconds

	// Observability: per-attempt latency histograms (overall and per
	// shard), retry/hedge counters mirrored into the registry, and a ring
	// of recent SearchBatch traces.
	reg            *obs.Registry
	tracer         *obs.Tracer
	histAttempt    *obs.Histogram
	histShard      []*obs.Histogram // indexed by partition id
	cntRequests    *obs.Counter
	cntRetries     *obs.Counter
	cntSheds       *obs.Counter
	cntSteers      *obs.Counter
	cntHedges      *obs.Counter
	cntHedgeWins   *obs.Counter
	cntHedgeLosses *obs.Counter

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
	// rrSeq rotates zero-affinity and Affinity-"none" requests across the
	// replica set so they spread instead of pinning replica 0.
	rrSeq atomic.Uint64
}

// replica is one server address with at most one pooled connection; the
// mutex serializes the request/response conversation on it.
type replica struct {
	addr string
	opts Options

	// rank memoizes the replica's rendezvous identity (a hash of its
	// address, never 0); lazily computed so hand-built test replicas work.
	rank atomic.Uint64

	// Health and load signals, written off the connection mutex so routing
	// never blocks on an in-flight request. failUntil/shedUntil are unix
	// nanos: until then the replica is demoted (transport failure) or
	// known saturated (it answered MsgShed). ewmaNs tracks attempt
	// round-trip latency; the warm* fields mirror the replica's last
	// StatsResp warmth block, recorded opportunistically whenever a stats
	// response passes through the router.
	failUntil   atomic.Int64
	shedUntil   atomic.Int64
	ewmaNs      atomic.Int64
	warmEntries atomic.Int64
	warmHits    atomic.Int64
	warmMisses  atomic.Int64
	warmAdmNs   atomic.Int64
	warmIdle    atomic.Int64
	warmAt      atomic.Int64 // unix nanos of the last warmth refresh

	mu    sync.Mutex
	conn  net.Conn
	br    *bufio.Reader
	hello wire.HelloOK
}

// rendezvousRank returns the replica's fixed rendezvous identity.
func (rp *replica) rendezvousRank() uint64 {
	if v := rp.rank.Load(); v != 0 {
		return v
	}
	v := qcache.Hash([]byte(rp.addr)) | 1 // 0 is the "uncomputed" sentinel
	rp.rank.Store(v)
	return v
}

// recordWarmth folds one StatsResp into the replica's steering state.
func (rp *replica) recordWarmth(st wire.StatsResp, now time.Time) {
	rp.warmEntries.Store(st.CacheEntries)
	rp.warmHits.Store(st.CacheHits)
	rp.warmMisses.Store(st.CacheMisses)
	rp.warmAdmNs.Store(st.AdmissionP50Ns)
	rp.warmIdle.Store(st.PoolIdle)
	rp.warmAt.Store(now.UnixNano())
}

// loadScore is the replica's steering cost: lower is better. Transport
// failure and a recent shed dominate; within a health class the reported
// admission-wait median plus the observed attempt-latency EWMA order the
// candidates, so a drowning replica loses to an idle one even before it
// sheds.
func (rp *replica) loadScore(now int64) (badness int, load int64) {
	if rp.failUntil.Load() > now {
		badness += 2
	}
	if rp.shedUntil.Load() > now {
		badness++
	}
	return badness, rp.warmAdmNs.Load() + rp.ewmaNs.Load()
}

// mix64 is the splitmix64 finalizer — the rendezvous score mixer combining
// a request's affinity with a replica's rank.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Dial connects to a deployment. shardAddrs lists, per shard, the addresses
// of its replicas (all replicas of a shard serve the same partition
// snapshot). The router handshakes one replica per shard, learns the pivot
// list and partition layout from the shards themselves, and verifies the
// deployment is consistent: every partition served exactly once, by shards
// agreeing on code length and pivots.
func Dial(shardAddrs [][]string, opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(shardAddrs) == 0 {
		return nil, fmt.Errorf("client: no shards")
	}
	engine, err := wire.ParseEngine(opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	priority, err := wire.ParsePriority(opts.Priority)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	switch opts.Affinity {
	case "", "rendezvous", "none":
	default:
		return nil, fmt.Errorf("client: unknown affinity policy %q (want rendezvous or none)", opts.Affinity)
	}
	r := &Router{
		opts:       opts,
		engine:     engine,
		priority:   priority,
		shards:     make([]*shard, len(shardAddrs)),
		reg:        opts.Obs,
		tracer:     obs.NewTracer(opts.TraceCapacity),
		now:        time.Now,
		sleep:      time.Sleep,
		randInt63n: rand.Int63n,
	}
	if r.reg == nil {
		r.reg = obs.NewRegistry()
	}
	r.histAttempt = r.reg.Histogram("attempt_ns")
	r.histShard = make([]*obs.Histogram, len(shardAddrs))
	for m := range r.histShard {
		r.histShard[m] = r.reg.Histogram(fmt.Sprintf("shard%02d.attempt_ns", m))
	}
	r.cntRequests = r.reg.Counter("shard_requests")
	r.cntRetries = r.reg.Counter("retries")
	r.cntSheds = r.reg.Counter("sheds")
	r.cntSteers = r.reg.Counter("steers")
	r.cntHedges = r.reg.Counter("hedges")
	r.cntHedgeWins = r.reg.Counter("hedge_wins")
	r.cntHedgeLosses = r.reg.Counter("hedge_losses")
	seen := make(map[int]string)
	for i, addrs := range shardAddrs {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("client: shard %d has no replicas", i)
		}
		sh := &shard{part: -1}
		for _, addr := range addrs {
			sh.replicas = append(sh.replicas, &replica{addr: addr, opts: opts})
		}
		var hello wire.HelloOK
		var err error
		for _, rp := range sh.replicas {
			if hello, err = rp.handshake(); err == nil {
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
			return nil, fmt.Errorf("client: partition %d served by both %s and %s", hello.Part, prev, addrs[0])
		}
		seen[hello.Part] = addrs[0]
		sh.part, sh.label = hello.Part, fmt.Sprintf("shard%02d", hello.Part)
		if r.pivots == nil {
			r.length = hello.Length
			r.pivots = hello.Pivots
		} else {
			if hello.Length != r.length {
				return nil, fmt.Errorf("client: shard %d serves %d-bit codes, others %d", i, hello.Length, r.length)
			}
			if len(hello.Pivots) != len(r.pivots) {
				return nil, fmt.Errorf("client: shard %d has %d pivots, others %d", i, len(hello.Pivots), len(r.pivots))
			}
			for j := range hello.Pivots {
				if !hello.Pivots[j].Equal(r.pivots[j]) {
					return nil, fmt.Errorf("client: shard %d pivot %d disagrees with the rest of the deployment", i, j)
				}
			}
		}
		r.shards[hello.Part] = sh
	}
	for part, sh := range r.shards {
		if sh == nil {
			return nil, fmt.Errorf("client: partition %d not served by any shard", part)
		}
	}
	r.ranges = histo.NewRanges(r.length, r.pivots)
	return r, nil
}

// Length returns the deployment's code length in bits.
func (r *Router) Length() int { return r.length }

// Parts returns the number of partitions.
func (r *Router) Parts() int { return len(r.shards) }

// Stats returns a snapshot of the router counters.
func (r *Router) Stats() Stats {
	return Stats{
		ShardRequests: r.shardRequests.Load(),
		QueriesRouted: r.queriesRouted.Load(),
		QueriesPruned: r.queriesPruned.Load(),
		Retries:       r.retries.Load(),
		Sheds:         r.sheds.Load(),
		Steers:        r.steers.Load(),
		Hedges:        r.hedges.Load(),
		HedgeWins:     r.hedgeWins.Load(),
		HedgeLosses:   r.hedgeLosses.Load(),
		BackoffWait:   time.Duration(r.backoffWait.Load()),
	}
}

// Snapshot returns Stats plus the attempt-latency distributions, overall and
// per shard.
func (r *Router) Snapshot() Snapshot {
	s := Snapshot{
		Stats:    r.Stats(),
		Attempt:  obs.Summarize(r.histAttempt.Snapshot()),
		PerShard: make([]obs.HistSummary, len(r.histShard)),
	}
	for m, h := range r.histShard {
		s.PerShard[m] = obs.Summarize(h.Snapshot())
	}
	return s
}

// Obs returns the router's metric registry (the one given in Options, or the
// router's private one).
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
		r.queriesRouted.Add(int64(len(parts)))
		r.queriesPruned.Add(int64(len(r.shards) - len(parts)))
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
			payload:  wire.SearchReq{H: h, Engine: r.engine, Priority: r.priority, Queries: sub}.Append(nil),
			affinity: r.affinityOf(sh, sub, h),
			// Static parts: the request path formats nothing.
			label: sh.label + " (" + strconv.Itoa(len(sub)) + " queries)",
		})
	}
	r.fanOut(legs, routeAffinity, tr)
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

// mergeRuns appends to dst the ascending merge of runs, each ascending. Every
// run is merged from the back into what the ones before it left, in place: dst
// grows by the run's length, and the write index stays ahead of the read index
// until one side is used up. Two runs, a deployment's usual fan-out, cost one
// comparison an element.
func mergeRuns[T cmp.Ordered](dst []T, runs [][]T) []T {
	base := len(dst)
	for _, run := range runs {
		i, j := len(dst)-1, len(run)-1
		dst = append(dst, run...) // for the room; the loop overwrites it
		for w := len(dst) - 1; i >= base && j >= 0; w-- {
			// Which side is next is a coin toss for ids hashed across shards:
			// select the value and step the index without a branch on it.
			a, b, fromDst := dst[i], run[j], 0
			if a > b {
				b, fromDst = a, 1
			}
			dst[w] = b
			i -= fromDst
			j -= 1 - fromDst
		}
		copy(dst[base:], run[:j+1]) // what is left of run is under everything merged
	}
	return dst
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
		r.queriesRouted.Add(int64(len(queries)))
		legs[m] = leg{sh: sh, t: wire.MsgTopK, want: wire.MsgTopKOK, payload: payload, affinity: r.affinityOf(sh, queries, k)}
	}
	r.fanOut(legs, routeAffinity, nil)
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
	// is an ascending run of keys and the k nearest are the first k of the
	// merge.
	ids := make([][]int, len(queries))
	dists := make([][]int, len(queries))
	var keys, merged []int64
	runs := make([][]int64, len(resps))
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
		if len(merged) > k {
			merged = merged[:k]
		}
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
	for m, sh := range r.shards {
		respType, payload, err := r.do(sh, routeRotate, 0, wire.MsgStats, nil, nil, obs.NoSpan)
		if err != nil {
			return nil, err
		}
		if respType != wire.MsgStatsOK {
			return nil, fmt.Errorf("client: shard %d answered %s", m, respType)
		}
		if out[m], err = wire.ParseStatsResp(payload); err != nil {
			return nil, err
		}
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

// routeMode says how do picks among a shard's replicas.
type routeMode int

const (
	// routeAffinity rendezvous-hashes the request's affinity key against the
	// replica set, so equal requests keep landing on the same warm cache. A
	// zero affinity (empty batch, Affinity "none") degrades to routeRotate.
	routeAffinity routeMode = iota
	// routeRotate round-robins across the shard's replicas — for requests
	// with no cacheable identity (stats) and for the Affinity "none" policy.
	routeRotate
	// routePrimary pins list order: replica 0 first, the rest as failovers.
	// Mutations use it so a replicated deployment's writes keep hitting one
	// replica instead of scattering divergence across the set.
	routePrimary
)

// affinityOf folds a query batch into its rendezvous affinity key: the XOR
// of qcache.Hash over each query's packed result-cache key (shard -1, epoch
// 0 — the deployment-position-independent core), so the affinity is
// order-insensitive across the batch and agrees with the key the answering
// server caches under. Zero means "no affinity" and falls back to rotation;
// a single-replica shard has nothing to choose between, so nothing is hashed.
func (r *Router) affinityOf(sh *shard, queries []bitvec.Code, h int) uint64 {
	if r.opts.Affinity == "none" || len(sh.replicas) == 1 {
		return 0
	}
	var a uint64
	var kb []byte
	for _, q := range queries {
		kb = qcache.Key{Code: q, H: h, Engine: r.engine, Shard: -1, Epoch: 0}.Append(kb[:0])
		a ^= qcache.Hash(kb)
	}
	return a
}

// soleReplica is the only order a single-replica shard has; read-only.
var soleReplica = []int{0}

// ranking orders a shard's replica indexes for one request: rendezvous
// scores (mode routeAffinity), round-robin rotation (routeRotate, or a zero
// affinity), or plain list order (routePrimary). Replicas inside their
// failure cooldown are then demoted to the tail, relative order preserved,
// so the first attempt and any hedge prefer replicas believed healthy while
// a shard whose replicas all failed still tries them all.
func (r *Router) ranking(sh *shard, mode routeMode, affinity uint64) []int {
	n := len(sh.replicas)
	if n == 1 {
		return soleReplica
	}
	order := make([]int, n)
	switch {
	case mode == routeAffinity && affinity != 0:
		for i := range order {
			order[i] = i
		}
		scores := make([]uint64, n)
		for i, rp := range sh.replicas {
			scores[i] = mix64(affinity ^ rp.rendezvousRank())
		}
		sort.Slice(order, func(a, b int) bool {
			if scores[order[a]] != scores[order[b]] {
				return scores[order[a]] > scores[order[b]]
			}
			return order[a] < order[b]
		})
	case mode == routePrimary:
		for i := range order {
			order[i] = i
		}
	default:
		base := int((sh.rrSeq.Add(1) - 1) % uint64(n))
		for i := range order {
			order[i] = (base + i) % n
		}
	}
	now := r.now().UnixNano()
	ranked := make([]int, 0, n)
	var cooling []int
	for _, i := range order {
		if sh.replicas[i].failUntil.Load() > now {
			cooling = append(cooling, i)
		} else {
			ranked = append(ranked, i)
		}
	}
	return append(ranked, cooling...)
}

// leastLoadedOther picks the steering target for a shed retry: the sibling
// of cur with the lowest (badness, load) score — not failed, preferring one
// that has not itself shed recently, then the lowest reported admission wait
// plus observed latency. Nil when cur has no live sibling, in which case the
// retry stays where it was.
func (r *Router) leastLoadedOther(sh *shard, cur *replica) *replica {
	now := r.now().UnixNano()
	var best *replica
	var bestBad int
	var bestLoad int64
	for _, rp := range sh.replicas {
		if rp == cur {
			continue
		}
		bad, load := rp.loadScore(now)
		if bad >= 2 {
			continue // failure cooldown: worse than the replica that at least answered
		}
		if best == nil || bad < bestBad || (bad == bestBad && load < bestLoad) {
			best, bestBad, bestLoad = rp, bad, load
		}
	}
	return best
}

// leg is one shard's share of a fan-out: the request frame to send and, once
// fanOut returns, the answer (resp, or err).
type leg struct {
	sh       *shard
	t, want  wire.MsgType // request type and the OK frame that answers it
	payload  []byte
	affinity uint64
	label    string // span name under the trace root, when the fan-out is traced

	resp []byte
	err  error

	// The request in progress: its span, its replica order and, while tried
	// is set, a first attempt on rp (begun at t0) that retry has yet to judge.
	span, attempt obs.SpanID
	rank          []int
	tried         bool
	rp            *replica
	t0            time.Time
	respType      wire.MsgType
}

// begin counts one shard request and fixes its replica order.
func (r *Router) begin(lg *leg, mode routeMode) {
	r.shardRequests.Add(1)
	r.cntRequests.Inc()
	lg.rank = r.ranking(lg.sh, mode, lg.affinity)
}

// fanOut runs one request's legs, which must be in ascending shard order.
// Every leg's first attempt is pipelined on the calling goroutine: the frames
// are written shard by shard, then the answers are read in the same order, so
// a request costs one write and one wake-up per leg each way and no goroutine
// hand-off. A leg holds its replica's conversation lock from write to read;
// taking the locks in shard order is what keeps concurrent requests on one
// Router from deadlocking. Only a leg whose first attempt did not come back
// as its OK frame (transport error, MsgError, MsgShed), or whose shard
// hedges, enters the retry loop — side by side when there are several.
func (r *Router) fanOut(legs []leg, mode routeMode, tr *obs.Trace) {
	start := r.now()
	for i := range legs {
		lg := &legs[i]
		r.begin(lg, mode)
		lg.span = tr.Start(lg.label, 0)
		if r.opts.HedgeAfter > 0 && len(lg.sh.replicas) > 1 {
			continue // a hedged leg races its replicas in retry from the start
		}
		lg.tried, lg.rp = true, lg.sh.replicas[lg.rank[0]]
		lg.attempt = tr.Start("attempt 0 → "+lg.rp.addr, lg.span)
		lg.t0 = time.Now()
		lg.rp.mu.Lock()
		lg.err = lg.rp.sendLocked(lg.t, lg.payload, nil)
	}
	var slow []*leg
	late := false
	for i := range legs {
		lg := &legs[i]
		if lg.tried {
			if lg.err == nil {
				if late {
					// The sibling that timed out ran this leg's deadline down
					// too; an answer that is already here still counts.
					lg.rp.conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
				}
				lg.respType, lg.resp, lg.err = lg.rp.recvLocked()
				late = late || errors.Is(lg.err, os.ErrDeadlineExceeded)
			}
			lg.rp.mu.Unlock()
			r.observe(lg.sh, lg.rp, lg.t0, lg.respType, lg.resp, lg.err, nil)
			tr.End(lg.attempt)
			if lg.err == nil && lg.respType == lg.want {
				tr.End(lg.span)
				continue
			}
		}
		slow = append(slow, lg)
	}
	if len(slow) == 0 {
		return
	}
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
		if lg.err == nil && lg.respType != lg.want {
			lg.err = fmt.Errorf("client: shard %d answered %s", lg.sh.part, lg.respType)
		}
	}
}

// do performs one shard request on its own (the stats poll has no siblings to
// pipeline with) through the retry loop and returns the frame that answered.
func (r *Router) do(sh *shard, mode routeMode, affinity uint64, t wire.MsgType, payload []byte, tr *obs.Trace, parent obs.SpanID) (wire.MsgType, []byte, error) {
	lg := leg{sh: sh, t: t, payload: payload, affinity: affinity, span: parent}
	r.begin(&lg, mode)
	r.retry(&lg, r.now(), tr)
	return lg.respType, lg.resp, lg.err
}

// retry carries one leg to an answer (lg.respType and resp, or err) with
// retry, backoff, and hedging. The replica order is the leg's ranking:
// attempt n goes to the n'th ranked replica (mod the set), so failover walks
// the rendezvous preference list instead of raw list position. A first
// attempt fanOut already made (lg.tried) is judged as attempt 0, not sent
// again. A server-reported error frame counts as a failed attempt just like a
// transport error. The whole loop — attempts plus backoff sleeps, from the
// request's start — is bounded by Opts.Timeout of wall time, so a run of
// failures cannot sleep far past the per-request budget.
//
// A MsgShed answer is not a failure: the shard is healthy but saturated, and
// blind failover would stampede the next replica with the same load. The
// request instead backs off (doubling, jittered, capped at MaxBackoff)
// without consuming a retry attempt, then steers the retry to the
// least-loaded live sibling — a colder cache beats a deadline miss — falling
// back to the replica that shed when it has no live sibling, until the
// request deadline runs out, at which point the error wraps ErrShed. A shed
// also disables hedging for the rest of the request, for the same reason: a
// speculative duplicate is extra load aimed at a shard that just asked for
// less.
func (r *Router) retry(lg *leg, start time.Time, tr *obs.Trace) {
	sh, rank, parent := lg.sh, lg.rank, lg.span
	deadline := start.Add(r.opts.Timeout)
	backoff := r.opts.Backoff
	var lastErr error
	// Once a shard sheds, hedging is off for the rest of this request: a
	// speculative duplicate adds load exactly when the server asked the
	// client to back off.
	shedSeen := false
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Equal jitter: sleep uniform in [b/2, b] so synchronized
			// clients spread out instead of re-stampeding a recovering
			// shard in lockstep.
			b := backoff
			if b > r.opts.MaxBackoff {
				b = r.opts.MaxBackoff
			}
			d := b/2 + time.Duration(r.randInt63n(int64(b/2)+1))
			if remain := deadline.Sub(r.now()); d > remain {
				lg.err = fmt.Errorf("client: shard %d: retry budget exhausted after %d attempts (timeout %v): %w",
					sh.part, attempt, r.opts.Timeout, lastErr)
				return
			}
			r.retries.Add(1)
			r.cntRetries.Inc()
			sp := tr.Start("backoff attempt "+strconv.Itoa(attempt), parent)
			r.sleep(d)
			tr.End(sp)
			r.backoffWait.Add(int64(d))
			backoff *= 2
		}
		rp := sh.replicas[rank[attempt%len(rank)]]
		var respType wire.MsgType
		var resp []byte
		var err error
		shedBackoff := r.opts.Backoff
		for {
			if lg.tried {
				lg.tried = false
				respType, resp, err = lg.respType, lg.resp, lg.err
			} else {
				sp := tr.Start("attempt "+strconv.Itoa(attempt)+" → "+rp.addr, parent)
				if attempt == 0 && !shedSeen && r.opts.HedgeAfter > 0 && len(sh.replicas) > 1 {
					var winner *replica
					winner, respType, resp, err = r.hedged(sh, rank, lg.t, lg.payload)
					if winner != nil {
						// A shed (or any answer) is attributed to the replica
						// that actually sent it, which may be the hedge leg.
						rp = winner
					}
				} else {
					respType, resp, err = r.attempt(sh, rp, lg.t, lg.payload, nil)
				}
				tr.End(sp)
			}
			if err != nil || respType != wire.MsgShed {
				break
			}
			r.sheds.Add(1)
			r.cntSheds.Inc()
			shedSeen = true
			b := shedBackoff
			if b > r.opts.MaxBackoff {
				b = r.opts.MaxBackoff
			}
			d := b/2 + time.Duration(r.randInt63n(int64(b/2)+1))
			// Remember the shed for about as long as this backoff round, so
			// rankings and hedges built meanwhile prefer the siblings.
			rp.shedUntil.Store(r.now().Add(2 * d).UnixNano())
			if remain := deadline.Sub(r.now()); d > remain {
				lg.err = fmt.Errorf("client: shard %d: %w (deadline %v exhausted)",
					sh.part, ErrShed, r.opts.Timeout)
				return
			}
			bsp := tr.Start("shed backoff → "+rp.addr, parent)
			r.sleep(d)
			tr.End(bsp)
			r.backoffWait.Add(int64(d))
			shedBackoff *= 2
			if next := r.leastLoadedOther(sh, rp); next != nil && next != rp {
				r.steers.Add(1)
				r.cntSteers.Inc()
				rp = next
			}
		}
		if err == nil && respType == wire.MsgError {
			em, perr := wire.ParseErrorMsg(resp)
			if perr != nil {
				err = perr
			} else {
				err = fmt.Errorf("client: shard %d: server error: %s", sh.part, em.Msg)
			}
		}
		if err == nil {
			lg.respType, lg.resp, lg.err = respType, resp, nil
			return
		}
		lastErr = err
	}
	lg.err = fmt.Errorf("client: shard %d failed after %d attempts: %w", sh.part, r.opts.MaxAttempts, lastErr)
}

// attempt performs one round trip on rp, under its conversation lock, and
// observes the outcome.
func (r *Router) attempt(sh *shard, rp *replica, t wire.MsgType, payload []byte, cancel *connCancel) (respType wire.MsgType, resp []byte, err error) {
	t0 := time.Now()
	rp.mu.Lock()
	if err = rp.sendLocked(t, payload, cancel); err == nil {
		respType, resp, err = rp.recvLocked()
	}
	rp.mu.Unlock()
	r.observe(sh, rp, t0, respType, resp, err, cancel)
	return respType, resp, err
}

// observe records one finished attempt's latency in the per-attempt
// histograms (overall and per shard), win or lose — failed and hedged
// attempts cost real time too, and the distribution should show it. It is
// also where the replica's health and warmth state is maintained: a
// transport failure starts the failure cooldown (unless the round trip was
// aborted by a decided hedge race, which says nothing about the replica), a
// success clears it and feeds the latency EWMA, and a stats answer passing
// through refreshes the warmth signal steering reads.
func (r *Router) observe(sh *shard, rp *replica, t0 time.Time, respType wire.MsgType, resp []byte, err error, cancel *connCancel) {
	ns := int64(time.Since(t0))
	r.histAttempt.Record(ns)
	r.histShard[sh.part].Record(ns)
	switch {
	case err == errHedgeAborted || cancel.wasAborted():
		// The race was decided out from under this leg; its connection may
		// have been closed deliberately. No health signal either way.
	case err != nil:
		rp.failUntil.Store(r.now().Add(r.opts.FailureCooldown).UnixNano())
	default:
		rp.failUntil.Store(0)
		if prev := rp.ewmaNs.Load(); prev > 0 {
			ns = (7*prev + ns) / 8
		}
		rp.ewmaNs.Store(ns)
		if respType == wire.MsgStatsOK {
			if st, perr := wire.ParseStatsResp(resp); perr == nil {
				rp.recordWarmth(st, r.now())
			}
		}
	}
}

// RefreshWarmth polls every replica of every shard for its serving stats and
// folds the warmth block into the steering state. The
// router also refreshes opportunistically from any stats response that
// passes through it (ShardStats); this is the explicit sweep for callers who
// want fresher load signals than their stats traffic provides, e.g. a load
// generator between phases.
func (r *Router) RefreshWarmth() {
	for _, sh := range r.shards {
		for _, rp := range sh.replicas {
			r.attempt(sh, rp, wire.MsgStats, nil, nil)
		}
	}
}

// errHedgeAborted marks a hedge leg whose race was decided before the leg
// got its turn on the replica's connection; nothing was written to the wire.
var errHedgeAborted = fmt.Errorf("client: hedge race already decided")

// connCancel lets the winner of a hedged race abort the loser's in-flight
// round trip. The loser registers its connection here after taking the
// replica lock; abort closes that connection, which unblocks the loser's
// read immediately (the error path poisons the pooled conn, so the next
// request redials). Without it the losing leg would sit on the replica's
// mutex — and its pooled connection — until the conn deadline, up to
// Opts.Timeout.
type connCancel struct {
	mu      sync.Mutex
	conn    net.Conn
	aborted bool
}

// register records the leg's connection so abort can reach it. It reports
// false when the race was already decided — the leg must give up without
// touching the wire.
func (c *connCancel) register(conn net.Conn) bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted {
		return false
	}
	c.conn = conn
	return true
}

// abort ends the leg: any registered connection is closed, and a leg yet to
// register will refuse to start.
func (c *connCancel) abort() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aborted = true
	if c.conn != nil {
		c.conn.Close()
	}
}

// wasAborted reports whether the race was decided against this leg. Its
// connection may have been closed out from under a healthy replica, so a
// transport error seen afterwards must not start that replica's failure
// cooldown.
func (c *connCancel) wasAborted() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborted
}

// hedged races the ranking's primary replica against a delayed speculative
// duplicate on a standby. The standby order is the rest of the ranking with
// replicas in failure cooldown or recently shedding demoted to its tail, so
// the hedge lands on the best-ranked replica believed able to answer — not
// on a hardwired list position that may be dead. If a hedge leg itself dies
// at the transport level, the next standby is launched immediately: the
// point of the hedge is a live second horse in the race. The first answer
// wins; losing legs are aborted promptly (their connections closed, their
// results drained in the background) so they do not hold pooled connections
// for the rest of the request timeout.
func (r *Router) hedged(sh *shard, rank []int, t wire.MsgType, payload []byte) (*replica, wire.MsgType, []byte, error) {
	type result struct {
		rp       *replica
		respType wire.MsgType
		resp     []byte
		err      error
		cancel   *connCancel
		hedge    bool
	}
	now := r.now().UnixNano()
	standbys := make([]*replica, 0, len(rank)-1)
	var cold []*replica
	for _, i := range rank[1:] {
		rp := sh.replicas[i]
		if rp.failUntil.Load() > now || rp.shedUntil.Load() > now {
			cold = append(cold, rp)
		} else {
			standbys = append(standbys, rp)
		}
	}
	standbys = append(standbys, cold...)
	ch := make(chan result, 1+len(standbys))
	launch := func(rp *replica, cancel *connCancel, hedge bool) {
		respType, resp, err := r.attempt(sh, rp, t, payload, cancel)
		ch <- result{rp: rp, respType: respType, resp: resp, err: err, cancel: cancel, hedge: hedge}
	}
	cancels := []*connCancel{new(connCancel)}
	go launch(sh.replicas[rank[0]], cancels[0], false)
	timer := time.NewTimer(r.opts.HedgeAfter)
	defer timer.Stop()
	launched, nextStandby := 1, 0
	launchNext := func() bool {
		if nextStandby >= len(standbys) {
			return false
		}
		r.hedges.Add(1)
		r.cntHedges.Inc()
		c := new(connCancel)
		cancels = append(cancels, c)
		go launch(standbys[nextStandby], c, true)
		nextStandby++
		launched++
		return true
	}
	for {
		select {
		case res := <-ch:
			if res.err == nil {
				if res.hedge {
					r.hedgeWins.Add(1)
					r.cntHedgeWins.Inc()
				}
				if losers := launched - 1; losers > 0 {
					// Cut the losing legs loose now: close their in-flight
					// connections and drain their results off-path.
					for _, c := range cancels {
						if c != res.cancel {
							c.abort()
						}
					}
					r.hedgeLosses.Add(int64(losers))
					r.cntHedgeLosses.Add(int64(losers))
					go func() {
						for i := 0; i < losers; i++ {
							<-ch
						}
					}()
				}
				return res.rp, res.respType, res.resp, nil
			}
			launched--
			if res.hedge && res.err != errHedgeAborted && launched > 0 {
				// The standby died under its hedge while the primary is
				// still out; replace it with the next candidate.
				launchNext()
			}
			if launched == 0 {
				// Primary failed before the hedge budget (or every leg
				// failed): surface the error to the retry loop.
				return nil, 0, nil, res.err
			}
		case <-timer.C:
			launchNext()
		}
	}
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
// poisons the connection so the next attempt starts fresh. A non-nil cancel
// makes the conversation abortable: the connection is registered with it
// before use, so a hedge winner can close it out from under the blocked read.
func (rp *replica) sendLocked(t wire.MsgType, payload []byte, cancel *connCancel) error {
	if rp.conn == nil {
		if err := rp.dialLocked(); err != nil {
			return err
		}
	}
	if !cancel.register(rp.conn) {
		// The race was decided before this leg reached the connection;
		// nothing was written, so the pooled conn stays healthy.
		return errHedgeAborted
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

// dialLocked connects and handshakes; rp.mu must be held.
func (rp *replica) dialLocked() error {
	conn, err := net.DialTimeout("tcp", rp.addr, rp.opts.DialTimeout)
	if err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(rp.opts.Timeout))
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.Hello{Version: wire.Version}.Append(nil)); err != nil {
		conn.Close()
		return err
	}
	respType, payload, err := wire.ReadFrame(br)
	if err != nil {
		conn.Close()
		return err
	}
	if respType == wire.MsgError {
		conn.Close()
		if em, perr := wire.ParseErrorMsg(payload); perr == nil {
			return fmt.Errorf("client: %s rejected handshake: %s", rp.addr, em.Msg)
		}
		return fmt.Errorf("client: %s rejected handshake", rp.addr)
	}
	if respType != wire.MsgHelloOK {
		conn.Close()
		return fmt.Errorf("client: %s answered handshake with %s", rp.addr, respType)
	}
	hello, err := wire.ParseHelloOK(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if hello.Version != wire.Version {
		conn.Close()
		return fmt.Errorf("client: %s speaks protocol version %d, this client speaks %d", rp.addr, hello.Version, wire.Version)
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
