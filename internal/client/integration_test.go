package client

import (
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
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/histo"
	"haindex/internal/obs"
	"haindex/internal/server"
	"haindex/internal/wire"
)

// deployment is a full in-process multi-shard serving stack built from one
// dataset: per-partition snapshot files, shard servers (optionally several
// replicas per shard), and the oracle index over all codes.
type deployment struct {
	codes   []bitvec.Code
	pivots  []bitvec.Code
	oracle  *core.Searcher
	servers []*server.Server
	addrs   [][]string
}

// oracleTopK is the k nearest tuples to q by core.TopKByRadius over the
// oracle's searches.
func (d *deployment) oracleTopK(q bitvec.Code, k int) ([]int, []int) {
	return core.TopKByRadius(q.Len(), k, func(h int) []int { return d.oracle.Search(q, h) })
}

// buildDeployment writes per-partition snapshots to disk, loads them back
// (exercising the snapshot protocol end to end), and starts the servers.
// replicaFaults[part] holds one fault plan per extra replica of that shard;
// replica 0 of shard 0 gets faults[0] etc.
func buildDeployment(t *testing.T, rng *rand.Rand, n, bits, parts int, replicas map[int][]*server.FaultPlan) *deployment {
	t.Helper()
	// All codes share the base's first 8 bits, so the dataset occupies one
	// narrow Gray region: interior partitions then share long rank
	// prefixes and far-off queries are provably prunable.
	base := bitvec.Rand(rng, bits)
	codes := make([]bitvec.Code, n)
	for i := range codes {
		c := base.Clone()
		for f := 0; f < rng.Intn(10); f++ {
			c.FlipBit(8 + rng.Intn(bits-8))
		}
		codes[i] = c
	}
	sample := make([]bitvec.Code, 0, 200)
	for _, i := range rng.Perm(n)[:min(200, n)] {
		sample = append(sample, codes[i])
	}
	pivots := histo.Pivots(sample, parts)

	d := &deployment{codes: codes, pivots: pivots}
	dir := t.TempDir()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	d.oracle = core.NewSearcher(buildFrozen(codes, ids, core.Options{}))

	byPart := make([][]bitvec.Code, parts)
	idsByPart := make([][]int, parts)
	for i, c := range codes {
		m := histo.PartitionID(pivots, c)
		byPart[m] = append(byPart[m], c)
		idsByPart[m] = append(idsByPart[m], i)
	}
	for m := 0; m < parts; m++ {
		meta := wire.SnapshotMeta{Part: m, Parts: parts, Length: bits, Pivots: pivots}
		idx := buildFrozen(byPart[m], idsByPart[m], core.Options{})
		var buf bytes.Buffer
		if err := wire.WriteSnapshot(&buf, meta, idx); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%05d.hasn", m))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var addrs []string
		plans := replicas[m]
		for rep := 0; rep < max(1, len(plans)); rep++ {
			var plan *server.FaultPlan
			if rep < len(plans) {
				plan = plans[rep]
			}
			s, err := server.LoadSnapshotFile(path, server.Options{Searchers: 2, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			d.servers = append(d.servers, s)
			addrs = append(addrs, s.Addr().String())
		}
		d.addrs = append(d.addrs, addrs)
	}
	return d
}

func (d *deployment) queries(rng *rand.Rand, nq, bits, flips int) []bitvec.Code {
	out := make([]bitvec.Code, nq)
	for i := range out {
		q := d.codes[rng.Intn(len(d.codes))].Clone()
		for f := 0; f < rng.Intn(flips+1); f++ {
			q.FlipBit(rng.Intn(bits))
		}
		out[i] = q
	}
	return out
}

// TestRouterMatchesOracleAcrossShards is the subsystem's acceptance test:
// results from a Router over multiple shard servers — one replica
// fault-injected to drop its first request — must be identical to a single
// in-process Searcher over all the data.
func TestRouterMatchesOracleAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const bits, parts, h = 32, 3, 3
	// Shard 0 has two replicas; the first drops the connection on its first
	// and second search requests, so the router must retry on to the healthy
	// replica.
	faulty := server.NewFaultPlan().DropRequest(0).DropRequest(1)
	d := buildDeployment(t, rng, 1200, bits, parts, map[int][]*server.FaultPlan{
		0: {faulty, nil},
	})
	// Rotation starts a shard's first request on replica 0, so the fault
	// plan is guaranteed to fire.
	r, err := Dial(d.addrs, Options{MaxAttempts: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := d.queries(rng, 120, bits, h)
	got, err := r.SearchBatch(queries, h)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		if !equalInts(got[i], want) {
			t.Fatalf("query %d: router %v, oracle %v", i, got[i], want)
		}
	}

	// Top-k across shards must match the oracle exactly, ties included.
	ids, dists, err := r.TopK(queries[:30], 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[:30] {
		wantIDs, wantDists := d.oracleTopK(q, 9)
		if !equalInts(ids[i], wantIDs) || !equalInts(dists[i], wantDists) {
			t.Fatalf("topk query %d: router (%v,%v), oracle (%v,%v)", i, ids[i], dists[i], wantIDs, wantDists)
		}
	}

	st := r.Stats()
	if st.Retries == 0 {
		t.Fatalf("fault-injected replica provoked no retries: %+v", st)
	}
	if st.QueriesPruned == 0 {
		t.Fatalf("Gray-range routing pruned nothing across %d shards: %+v", parts, st)
	}
	// The injected faults must be visible in the faulty shard's counters.
	found := false
	for _, s := range d.servers {
		if s.Stats().FaultsInjected > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no server recorded injected faults")
	}
}

// TestRouterShardStats: after a known batch of searches over a 2-shard
// deployment, ShardStats returns one StatsResp per partition, in partition
// order — each shard's Queries is what the Gray ranges route to that
// partition — and their Queries add up to what the router routed.
func TestRouterShardStats(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const bits, parts, h = 32, 2, 1
	d := buildDeployment(t, rng, 600, bits, parts, nil)
	r, err := Dial(d.addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := d.queries(rng, 80, bits, 6)
	if _, err := r.SearchBatch(queries, h); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, parts)
	ranges := histo.NewRanges(bits, d.pivots)
	for _, q := range queries {
		for _, m := range ranges.Route(nil, q, h) {
			want[m]++
		}
	}
	if want[0] == want[1] {
		t.Fatalf("both partitions routed %d queries: the order is not under test", want[0])
	}
	stats, err := r.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != parts {
		t.Fatalf("%d StatsResp for %d partitions", len(stats), parts)
	}
	var sum int64
	for m, st := range stats {
		if st.Queries != want[m] {
			t.Fatalf("partition %d answered %d queries, its range was routed %d", m, st.Queries, want[m])
		}
		sum += st.Queries
	}
	if routed := r.Stats().QueriesRouted; sum != routed {
		t.Fatalf("shards answered %d queries, the router routed %d", sum, routed)
	}
}

// TestRouterSingleReplicaRetriesSameServer: with one replica per shard the
// retry loop must come back to the same address and succeed once the fault
// budget is spent.
func TestRouterSingleReplicaRetriesSameServer(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const bits, parts, h = 16, 2, 2
	d := buildDeployment(t, rng, 300, bits, parts, map[int][]*server.FaultPlan{
		0: {server.NewFaultPlan().DropRequest(0)},
		1: {server.NewFaultPlan().DropRequest(0).DropRequest(1)},
	})
	r, err := Dial(d.addrs, Options{MaxAttempts: 4, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	queries := d.queries(rng, 40, bits, h)
	got, err := r.SearchBatch(queries, h)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		if !equalInts(got[i], want) {
			t.Fatalf("query %d: router %v, oracle %v", i, got[i], want)
		}
	}
}

// fetchObs pulls and decodes a debug endpoint's registry snapshot.
func fetchObs(t *testing.T, addr net.Addr) obs.RegistrySnapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr.String() + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestObservabilityAcceptance drives the router against a fault-injected
// deployment with the servers' debug endpoints up, then checks that the
// client and server registries tell one consistent story: the client
// retried, the servers injected faults, and every search attempt the client
// issued is accounted for in the servers' request counters.
func TestObservabilityAcceptance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const bits, parts, h = 16, 2, 2
	// Shard 0's only replica drops the connection on its first two
	// requests, so the router must redial the same server and retry there.
	d := buildDeployment(t, rng, 400, bits, parts, map[int][]*server.FaultPlan{
		0: {server.NewFaultPlan().DropRequest(0).DropRequest(1)},
	})
	var debugAddrs []net.Addr
	for _, s := range d.servers {
		a, err := s.StartDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		debugAddrs = append(debugAddrs, a)
	}
	r, err := Dial(d.addrs, Options{MaxAttempts: 4, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := d.queries(rng, 60, bits, h)
	if _, err := r.SearchBatch(queries, h); err != nil {
		t.Fatal(err)
	}

	// A server records req.search_ns after it has written the reply, so the
	// last sample may land after the client already holds its answer: read
	// the endpoints again, for at most two seconds, until every answered
	// search is in the histograms.
	var serverRequests, serverFaults, serverSearchNs, serverQueries int64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		serverRequests, serverFaults, serverSearchNs, serverQueries = 0, 0, 0, 0
		for _, a := range debugAddrs {
			snap := fetchObs(t, a)
			serverRequests += snap.Counters["requests"]
			serverFaults += snap.Counters["faults_injected"]
			serverSearchNs += snap.Histograms["req.search_ns"].Count
			serverQueries += snap.Counters["queries"]
		}
		if serverSearchNs >= serverRequests-serverFaults || time.Now().After(deadline) {
			break
		}
	}
	st := r.Stats()
	if st.Retries == 0 {
		t.Fatalf("fault plan provoked no client retries: %+v", st)
	}
	if st.BackoffWait <= 0 {
		t.Fatalf("retries recorded but no backoff wait accumulated: %+v", st)
	}
	if serverFaults == 0 {
		t.Fatal("debug endpoints report no injected faults")
	}
	// Consistency across the two registries: every client attempt (first
	// tries plus retries) reached a server and was counted there,
	// dropped or not.
	attempts := st.ShardRequests + st.Retries
	if serverRequests != attempts {
		t.Fatalf("servers counted %d requests, client issued %d attempts: %+v", serverRequests, attempts, st)
	}
	hists := r.Obs().Snapshot().Histograms
	if at := hists["attempt_ns"]; at.Count != attempts {
		t.Fatalf("client attempt histogram has %d samples, want %d", at.Count, attempts)
	} else if at.P50 <= 0 || at.P95 < at.P50 || at.Max < at.P95 {
		t.Fatalf("attempt percentiles not monotone: %+v", at)
	}
	var perShard int64
	for m := 0; m < parts; m++ {
		hs, ok := hists[fmt.Sprintf("shard%02d.attempt_ns", m)]
		if !ok {
			t.Fatalf("no attempt histogram for shard %d", m)
		}
		perShard += hs.Count
	}
	if perShard != attempts {
		t.Fatalf("per-shard histograms hold %d samples, want %d", perShard, attempts)
	}
	// Every Stats field is a counter on the client registry.
	creg := r.Obs().Snapshot().Counters
	for name, stat := range map[string]int64{
		"shard_requests": st.ShardRequests,
		"queries_routed": st.QueriesRouted,
		"queries_pruned": st.QueriesPruned,
		"retries":        st.Retries,
		"sheds":          st.Sheds,
		"backoff_ns":     int64(st.BackoffWait),
	} {
		if creg[name] != stat {
			t.Fatalf("client registry's %s = %d, Stats says %d: %+v", name, creg[name], stat, st)
		}
	}
	// Every query×shard pair is routed or pruned, and every routed one was
	// answered once: the servers' queries counters sum to QueriesRouted.
	if st.QueriesRouted+st.QueriesPruned != int64(len(queries)*parts) || serverQueries != st.QueriesRouted {
		t.Fatalf("%d queries × %d shards: routed %d, pruned %d, servers answered %d", len(queries), parts, st.QueriesRouted, st.QueriesPruned, serverQueries)
	}
	// Only successfully answered searches land in the servers' latency
	// histograms; the dropped attempts must not.
	if want := serverRequests - serverFaults; serverSearchNs != want {
		t.Fatalf("servers' search histograms hold %d samples, want %d", serverSearchNs, want)
	}
	// The SearchBatch trace made it into the tracer ring with real spans.
	slowest := r.Tracer().Slowest()
	if slowest == nil {
		t.Fatal("tracer kept no SearchBatch trace")
	}
	spans := slowest.Spans()
	if len(spans) < 4 { // root + route + ≥1 shard span + decode+merge
		t.Fatalf("slowest trace has only %d spans: %v", len(spans), spans)
	}
	// What precedes the legs and what follows them are both on the record.
	for _, name := range []string{"route", "decode+merge"} {
		if !slices.ContainsFunc(spans, func(sp obs.Span) bool { return sp.Name == name }) {
			t.Fatalf("slowest trace has no %q span: %v", name, spans)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterEnginesMatchOracle is the multi-engine acceptance test: one
// deployment with every shard planned at load, queried through the
// planner's choice and through each forced engine in turn — every routing
// must return exactly the single-index oracle's ids. The per-engine
// decision counters and latency histograms must surface at /debug/obs.
func TestRouterEnginesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const bits, parts, h = 32, 3, 4
	d := buildDeployment(t, rng, 1500, bits, parts, nil)
	queries := d.queries(rng, 40, bits, h)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want[i])
		if len(want[i]) == 0 {
			want[i] = nil
		}
	}
	for _, engine := range []string{"auto", "ha", "mih", "scan"} {
		r, err := Dial(d.addrs, Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.SearchBatch(queries, h)
		r.Close()
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		for i := range queries {
			if !equalInts(got[i], want[i]) {
				t.Fatalf("engine %s query %d: router %v, oracle %v", engine, i, got[i], want[i])
			}
		}
	}

	// Unknown engine names are rejected at Dial.
	if _, err := Dial(d.addrs, Options{Engine: "warp"}); err == nil {
		t.Fatal("bad engine name accepted")
	}

	// Every server routed requests; the strategy counters and per-engine
	// latency histograms must be populated across the deployment.
	var routed int64
	engineSamples := map[string]int64{}
	for _, s := range d.servers {
		a, err := s.StartDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		snap := fetchObs(t, a)
		for _, name := range []string{"ha", "mih", "scan"} {
			routed += snap.Counters["lsm.search_"+name]
			engineSamples[name] += snap.Histograms["lsm.search_"+name+"_ns"].Count
		}
	}
	if routed == 0 {
		t.Fatal("no planner decisions counted across the deployment")
	}
	for _, name := range []string{"ha", "mih", "scan"} {
		if engineSamples[name] == 0 {
			t.Fatalf("lsm.search_%s_ns histograms empty across the deployment", name)
		}
	}
}

// buildFrozen is core.BuildFrozen over codes and their ids, which it leaves
// as they are.
func buildFrozen(codes []bitvec.Code, ids []int, opts core.Options) *core.FrozenIndex {
	var rows []uint64
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	return core.BuildFrozen(codes[0].Len(), rows, slices.Clone(ids), opts)
}
