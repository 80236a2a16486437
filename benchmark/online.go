package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/client"
)

// onlineSpec is one online workload: what the servers hold and what the
// callers ask.
type onlineSpec struct {
	name    string
	n       int  // stored codes
	h       int  // select threshold
	batch   int  // queries per request
	mutable bool // haserve -mutable, with caller B writing
}

const (
	codeBits   = 64
	shards     = 2
	callers    = 2 // closed-loop callers, each with its own Router
	queryFlips = 2 // every query is a stored code with this many bits flipped
	writeBatch = 16
	insertFlip = 3 // an inserted code is a seed code with this many bits flipped
)

// kept is one reply set aside during the window for the oracle check after
// it, so checking costs the measured loop nothing.
type kept struct {
	queries []bitvec.Code
	ids     [][]int
}

// searchCaller is one closed-loop caller issuing selects: it sends its next
// request only when the previous reply has arrived.
type searchCaller struct {
	r       *client.Router
	queries []bitvec.Code
	next    int // index of the next unused query
	stride  int // callers interleave the query pool
	h       int
	batch   int

	requests  int
	failed    int
	answered  int     // queries in successful requests
	lat       []int64 // ns per successful request
	keepEvery int     // keep 1 in keepEvery replies; 0 keeps none
	kept      []kept
	// sampled, when set, is called for each kept request with its live
	// timing: the traced run replays the request there.
	sampled func(seq int, qs []bitvec.Code, start, end time.Time)
}

func (c *searchCaller) nextBatch() []bitvec.Code {
	qs := make([]bitvec.Code, c.batch)
	for i := range qs {
		qs[i] = c.queries[c.next%len(c.queries)]
		c.next += c.stride
	}
	return qs
}

func (c *searchCaller) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		qs := c.nextBatch()
		t0 := time.Now()
		ids, err := c.r.SearchBatch(qs, c.h)
		t1 := time.Now()
		c.requests++
		if err != nil {
			c.failed++
			continue
		}
		c.lat = append(c.lat, t1.Sub(t0).Nanoseconds())
		c.answered += len(qs)
		if c.keepEvery > 0 && c.requests%c.keepEvery == 0 {
			c.kept = append(c.kept, kept{qs, ids})
			if c.sampled != nil {
				c.sampled(c.requests, qs, t0, t1)
			}
		}
	}
}

// script is churn's seeded mutation sequence: insert batches of fresh ids,
// every 4th request deleting the oldest live inserts instead, until liveCap
// inserted tuples are live (eight default memtables' worth at full size, so
// the oldest have long been sealed and compacted and deleting one is a
// tombstone); from then on every 2nd request deletes, so the
// deployment stops growing and a window measures a steady state whatever
// rate the writes reach. Seed ids are never touched, so the seed range always
// has one right answer. The same script drives caller B against the children
// and the in-process lsm replay.
type script struct {
	rng      *rand.Rand
	seed     []bitvec.Code
	liveCap  int
	nextID   int
	requests int

	live  map[int]bitvec.Code // acknowledged inserts not yet deleted
	order []int               // live ids, oldest first
}

func newScript(seedCodes []bitvec.Code, seed int64, liveCap int) *script {
	return &script{
		rng: rand.New(rand.NewSource(seed)), seed: seedCodes, liveCap: liveCap,
		nextID: len(seedCodes), live: make(map[int]bitvec.Code),
	}
}

// next returns the next mutation: ids to delete when codes is nil, else
// (id, code) pairs to insert.
func (s *script) next() (ids []int, codes []bitvec.Code) {
	s.requests++
	every := 4
	if len(s.order) >= s.liveCap {
		every = 2
	}
	if s.requests%every == 0 && len(s.order) >= writeBatch {
		return append([]int(nil), s.order[:writeBatch]...), nil
	}
	ids = make([]int, writeBatch)
	codes = make([]bitvec.Code, writeBatch)
	for i := range ids {
		ids[i] = s.nextID
		s.nextID++
		codes[i] = flipped(s.rng, s.seed[s.rng.Intn(len(s.seed))], insertFlip)
	}
	return ids, codes
}

// applied records a mutation the deployment acknowledged.
func (s *script) applied(ids []int, codes []bitvec.Code) {
	if codes == nil {
		s.order = s.order[len(ids):]
		for _, id := range ids {
			delete(s.live, id)
		}
		return
	}
	for i, id := range ids {
		s.live[id] = codes[i]
	}
	s.order = append(s.order, ids...)
}

// mutator is caller B of churn: the script, closed loop, through a Router.
type mutator struct {
	*script
	r *client.Router

	sent   int
	failed int
	tuples int     // tuples in acknowledged requests
	lat    []int64 // ns per acknowledged mutation request
}

func (m *mutator) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		ids, codes := m.next()
		m.sent++
		var err error
		t0 := time.Now()
		if codes == nil {
			_, err = m.r.Delete(ids)
		} else {
			_, err = m.r.Insert(ids, codes)
		}
		el := time.Since(t0)
		if err != nil {
			m.failed++
			continue
		}
		m.applied(ids, codes)
		m.lat = append(m.lat, el.Nanoseconds())
		m.tuples += len(ids)
	}
}

// setUp execs the children and returns once a Router has had an
// oracle-verified answer from every shard. The returned duration is what
// setup_s reports: exec to first verified answers.
func setUp(e *env, spec onlineSpec, ss *shardSet, codes []bitvec.Code, orc *oracle) ([]*child, time.Duration, error) {
	var extra []string
	if spec.mutable {
		extra = []string{"-mutable"}
	}
	t0 := time.Now()
	kids, err := startShards(e.bin, ss.paths, extra, e.dir)
	if err != nil {
		return nil, 0, err
	}
	r, err := client.Dial(addrsOf(kids), client.Options{})
	if err != nil {
		stopAll(kids)
		return nil, 0, err
	}
	defer r.Close()
	for m := range ss.paths {
		if len(ss.part[m]) == 0 {
			continue
		}
		// A stored code of partition m routes to shard m, and the whole
		// answer is checked, so every shard it names has answered.
		q := codes[ss.part[m][0]]
		got, err := r.Search(q, spec.h)
		if err == nil && !equalInts(got, orc.search(nil, q, spec.h)) {
			err = fmt.Errorf("first answer from shard %d differs from the oracle", m)
		}
		if err != nil {
			stopAll(kids)
			return nil, 0, err
		}
	}
	return kids, time.Since(t0), nil
}

// onlineRun is everything one online workload run produced.
type onlineRun struct {
	spec    onlineSpec
	codes   []bitvec.Code
	queries []bitvec.Code
	ss      *shardSet
	orc     *oracle

	builds []time.Duration // wall of each streaming snapshot build
	// buildsPerScan is, per build, codes built per second over the queries
	// per second of the scan slices before and after it.
	buildsPerScan []float64
	setups        []time.Duration // exec to first verified answers, cycle by cycle
	setupsNominal []float64       // the same in the nominal machine's seconds
	scanNext      int             // index of the next query the scan baseline uses
	searchers     []*searchCaller
	mut           *mutator
	kids          []*child
	base          phaseStats // the untraced measured window
	traced        phaseStats // the traced half-window; zero on an untraced run
	memMB         float64
	epochs        uint64 // churn: seal and compaction swaps the children made, summed

	attempted int
	failed    int
}

// runOnline drives one online workload end to end. With a tracer the window
// is split in two halves, untraced then traced.
func runOnline(e *env, spec onlineSpec, tr *tracer) (*onlineRun, error) {
	run := &onlineRun{spec: spec}
	rng := rand.New(rand.NewSource(e.seed))
	run.codes = clusteredCodes(rng, spec.n, codeBits)

	snapDir := filepath.Join(e.dir, fmt.Sprintf("%s-seed%d-n%d-b%d", spec.name, e.seed, spec.n, codeBits))
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)
	run.orc = newOracle(run.codes, nil)
	nq := spec.n
	if nq > 1<<18 {
		nq = 1 << 18
	}
	run.queries = queriesNear(rng, run.codes, nq, queryFlips)

	// The streaming build is the ingest path of the immutable workloads, so
	// it is timed there, five times, with a slice of the scan baseline before
	// and after each to compare it with.
	builds := 5
	if spec.mutable {
		builds = 1
	}
	var ss *shardSet
	var scans []float64
	if !spec.mutable {
		scans = append(scans, run.scan(2*e.sz.ScanSlice))
	}
	for i := 0; i < builds; i++ {
		var err error
		if ss, err = writeShards(snapDir, run.codes, codeBits, shards); err != nil {
			return nil, err
		}
		build := ss.pivotsTime + ss.sortTime + ss.writeTime
		run.builds = append(run.builds, build)
		if !spec.mutable {
			scans = append(scans, run.scan(2*e.sz.ScanSlice))
			run.buildsPerScan = append(run.buildsPerScan, float64(spec.n)/build.Seconds()/((scans[i]+scans[i+1])/2))
		}
	}
	run.ss = ss

	cycles := e.sz.SetupCycles
	if tr != nil {
		cycles = 1 // setup_s is an end-to-end metric; the traced run skips the repeats
		defer tr.detach()
		if err := tr.prepare(run); err != nil {
			return nil, err
		}
	}
	var kids []*child
	for i := 0; i < cycles && !e.setupsDone(run.setups); i++ {
		stopAll(kids)
		scan := run.scan(2 * e.sz.ScanSlice) // no child is alive: the set-up's clock
		var d time.Duration
		var err error
		kids, d, err = setUp(e, spec, ss, run.codes, run.orc)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, d)
		run.setupsNominal = append(run.setupsNominal, run.orc.nominalSeconds(d, scan, callers))
	}
	defer stopAll(kids)
	run.kids = kids

	var routers []*client.Router
	defer func() {
		for _, r := range routers {
			r.Close()
		}
	}()
	for i := 0; i < callers; i++ {
		r, err := client.Dial(addrsOf(kids), client.Options{})
		if err != nil {
			return nil, err
		}
		routers = append(routers, r)
	}

	nSearch := callers
	if spec.mutable {
		nSearch = 1
		run.mut = &mutator{script: newScript(run.codes, e.seed+1, e.sz.LiveCap), r: routers[1]}
	}
	for i := 0; i < nSearch; i++ {
		run.searchers = append(run.searchers, &searchCaller{
			r: routers[i], queries: run.queries, next: i, stride: nSearch, h: spec.h, batch: spec.batch,
		})
	}

	// Verify pass: every reply checked, one request at a time.
	verifyFailed := 0
	for i := 0; i < e.sz.Verify; i++ {
		c := run.searchers[i%nSearch]
		qs := c.nextBatch()
		ids, err := c.r.SearchBatch(qs, spec.h)
		if err != nil || !run.replyCorrect(qs, ids) {
			verifyFailed++
		}
	}

	// Warm-up, and on churn on until the script has filled the deployment to
	// its cap (about 3 s), which also takes it past the first compaction, the
	// one that rebuilds the bootstrapped segment.
	run.load(e.sz.Warmup)
	for t0 := time.Now(); run.mut != nil && len(run.mut.order) < e.sz.LiveCap && time.Since(t0) < 20*time.Second; {
		run.load(e.sz.LoadSlice)
	}
	run.harvest(&phaseStats{}) // warm-up is not measured: drop what it counted
	run.attempted, run.failed = e.sz.Verify, verifyFailed
	for _, c := range run.searchers {
		c.keepEvery = e.sz.SampleEvery
	}

	if tr == nil {
		run.base = run.measure(e, e.window)
	} else {
		// Untraced half first: its throughput is the base of
		// trace_overhead_ratio. Then the same load with caller A replaying
		// 1 in SampleEvery of its requests layer by layer.
		run.base = run.measure(e, e.window/2)
		if err := tr.attach(run, kids); err != nil {
			return nil, err
		}
		run.traced = run.measure(e, e.window/2)
	}
	run.memMB = statusMB(kids, "VmHWM")

	if run.mut != nil {
		bad, err := run.finalCheck(e, routers[0])
		if err != nil {
			return nil, err
		}
		run.attempted += e.sz.FinalChecks
		run.failed += bad
	}
	if tr != nil {
		if err := tr.collect(run, routers); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// phaseStats is what one measured window produced. The window is a run of
// cycles: the callers load the deployment for LoadSlice, then stop while the
// harness's own scan baseline runs for ScanSlice on the same cores. The
// machine's speed drifts by a fifth and more over minutes; a cycle's load and
// scan see the same machine, so their ratio does not drift with it.
type phaseStats struct {
	searchLat   []int64   // sorted, ns per successful select request
	writeLat    []int64   // sorted, ns per successful mutation request
	searchRates []float64 // queries per second, cycle by cycle
	writeRates  []float64 // tuples per second, cycle by cycle; nil without a mutator
	scanRates   []float64 // the scan baseline's queries per second, cycle by cycle
	cycleP50    []float64 // median select latency in seconds, cycle by cycle
	rssMB       []float64 // the children's resident set, summed, at the end of each cycle's load
	keptQueries int       // queries among the kept replies, and the ids they returned
	keptIDs     int
}

// churn reports whether a mutator wrote beside the selects.
func (p phaseStats) churn() bool { return p.writeRates != nil }

// searchQPS is the window's select throughput. On the immutable workloads it
// is the median cycle: a stall elsewhere on the machine, or a planner trying
// its runner-up engine, spoils the cycles it overlaps, not the run. On churn
// seals and compactions make cycles differ by design, and the throughput is
// the mean over them.
func (p phaseStats) searchQPS() float64 {
	if p.churn() {
		return mean(p.searchRates)
	}
	return median(p.searchRates)
}

func (p phaseStats) writeTPS() float64 { return mean(p.writeRates) }

// scanQPS is the window's scan baseline. On churn a child's compaction takes
// a core from some scan slices and not from others, so it is their upper
// quartile there: the scan nobody disturbed.
func (p phaseStats) scanQPS() float64 {
	if p.churn() {
		return quantile(p.scanRates, 0.75)
	}
	return median(p.scanRates)
}

// speedup is select throughput over the scan baseline's, cycle by cycle on
// the immutable workloads.
func (p phaseStats) speedup() float64 {
	if p.churn() {
		return p.searchQPS() / p.scanQPS()
	}
	return median(ratios(p.searchRates, p.scanRates, func(q, scan float64) float64 { return q / scan }))
}

// p50Scans is the median select latency with the scan baseline as the clock:
// how many queries the scan answers while one request waits.
func (p phaseStats) p50Scans() float64 {
	if p.churn() {
		return float64(percentile(p.searchLat, 50)) / 1e9 * p.scanQPS()
	}
	return median(ratios(p.cycleP50, p.scanRates, func(lat, scan float64) float64 { return lat * scan }))
}

func ratios(a, b []float64, f func(a, b float64) float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// load runs the callers, closed loop, for d.
func (run *onlineRun) load(d time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range run.searchers {
		wg.Add(1)
		go func(c *searchCaller) { defer wg.Done(); c.run(deadline) }(c)
	}
	if run.mut != nil {
		wg.Add(1)
		go func() { defer wg.Done(); run.mut.run(deadline) }()
	}
	wg.Wait()
	return time.Since(start)
}

// scan runs one slice of the scan baseline and returns its queries per second.
// The harness collects its garbage first: the scan allocates nothing, so no
// collection of the callers' leavings runs beside it and takes half a core.
func (run *onlineRun) scan(d time.Duration) float64 {
	runtime.GC()
	qps, used := run.orc.scanFor(run.queries, run.scanNext, run.spec.h, callers, d)
	run.scanNext += used
	return qps
}

// measure runs cycles of load and scan for about d and returns what they
// measured.
func (run *onlineRun) measure(e *env, d time.Duration) phaseStats {
	var p phaseStats
	cycles := int(d / (e.sz.LoadSlice + e.sz.ScanSlice))
	if cycles < 1 {
		cycles = 1
	}
	for i := 0; i < cycles; i++ {
		before := len(p.searchLat)
		el := run.load(e.sz.LoadSlice)
		queries, tuples := run.harvest(&p)
		p.cycleP50 = append(p.cycleP50, float64(percentile(sortedCopy(p.searchLat[before:]), 50))/1e9)
		p.searchRates = append(p.searchRates, float64(queries)/el.Seconds())
		if run.mut != nil {
			p.writeRates = append(p.writeRates, float64(tuples)/el.Seconds())
		}
		p.rssMB = append(p.rssMB, statusMB(run.kids, "VmRSS"))
		p.scanRates = append(p.scanRates, run.scan(e.sz.ScanSlice))
	}
	p.searchLat = sortedCopy(p.searchLat)
	p.writeLat = sortedCopy(p.writeLat)
	return p
}

// harvest folds what the callers did since the last harvest into the run's
// totals — requests attempted, failed, and kept replies the oracle rejects —
// and into p, clears the callers, and returns the queries answered and tuples
// written. Query cursors keep advancing, so no cycle repeats another's
// queries.
func (run *onlineRun) harvest(p *phaseStats) (queries, tuples int) {
	for _, c := range run.searchers {
		run.attempted += c.requests
		run.failed += c.failed
		for _, k := range c.kept {
			if !run.replyCorrect(k.queries, k.ids) {
				run.failed++
			}
			p.keptQueries += len(k.queries)
			for _, ids := range k.ids {
				p.keptIDs += len(ids)
			}
		}
		p.searchLat = append(p.searchLat, c.lat...)
		queries += c.answered
		c.requests, c.failed, c.answered, c.lat, c.kept = 0, 0, 0, nil, nil
	}
	if m := run.mut; m != nil {
		run.attempted += m.sent
		run.failed += m.failed
		p.writeLat = append(p.writeLat, m.lat...)
		tuples = m.tuples
		m.sent, m.failed, m.tuples, m.lat = 0, 0, 0, nil
	}
	return queries, tuples
}

// replyCorrect checks one reply against the oracle. On a mutable deployment
// only the seed id range is compared: it is never mutated, so its answer is
// exact whatever caller B has done meanwhile.
func (run *onlineRun) replyCorrect(qs []bitvec.Code, ids [][]int) bool {
	if len(ids) != len(qs) {
		return false
	}
	var want []int
	for i, q := range qs {
		got := ids[i]
		if run.spec.mutable {
			got = nil
			for _, id := range ids[i] {
				if id < run.spec.n {
					got = append(got, id)
				}
			}
		}
		want = run.orc.search(want[:0], q, run.spec.h)
		if !equalInts(got, want) {
			return false
		}
	}
	return true
}

// finalCheck seals and compacts every shard, then compares the full live
// set — seed codes plus caller B's surviving inserts — with the oracle on
// FinalChecks queries, half of them aimed at inserted codes.
func (run *onlineRun) finalCheck(e *env, r *client.Router) (bad int, err error) {
	sealed, err := r.Seal(true)
	if err != nil {
		return 0, fmt.Errorf("final seal: %w", err)
	}
	for _, s := range sealed {
		run.epochs += s.Epoch
	}
	codes := append([]bitvec.Code(nil), run.codes...)
	ids := make([]int, len(codes), len(codes)+len(run.mut.order))
	for i := range ids {
		ids[i] = i
	}
	for _, id := range run.mut.order {
		codes = append(codes, run.mut.live[id])
		ids = append(ids, id)
	}
	full := newOracle(codes, ids)
	rng := rand.New(rand.NewSource(e.seed + 2))
	var want []int
	for i := 0; i < e.sz.FinalChecks; i++ {
		q := run.queries[rng.Intn(len(run.queries))]
		if i%2 == 1 && len(run.mut.order) > 0 {
			q = flipped(rng, run.mut.live[run.mut.order[rng.Intn(len(run.mut.order))]], 1)
		}
		got, err := r.Search(q, run.spec.h)
		want = full.search(want[:0], q, run.spec.h)
		if err != nil || !equalInts(got, want) {
			bad++
		}
	}
	return bad, nil
}

// runOnlineWorkload runs one online workload and names what it measured.
func runOnlineWorkload(e *env, spec onlineSpec, traced bool) (*outcome, error) {
	var tr *tracer
	if traced {
		tr = newTracer(e)
	}
	run, err := runOnline(e, spec, tr)
	if err != nil {
		return nil, err
	}
	base := run.base
	tailP, tailV := tail(base.searchLat, 99)
	out := &outcome{
		attempted: run.attempted, failed: run.failed,
		record: map[string]interface{}{
			"n": spec.n, "bits": codeBits, "h": spec.h, "batch": spec.batch, "shards": shards,
			"search_requests": len(base.searchLat), "search_tail_percentile": tailP,
			"write_requests": len(base.writeLat), "setup_cycles_s": seconds(run.setups),
			"cycles": len(base.searchRates), "scan_qps": base.scanQPS(), "build_s": seconds(run.builds),
			"ids_per_query": float64(base.keptIDs) / float64(base.keptQueries), "lsm_epochs": run.epochs,
			"builds_per_scan": run.buildsPerScan,
			"mem_hwm_mb":      run.memMB, "mem_rss_cycles_mb": base.rssMB,
			"search_qps_cycles": base.searchRates, "scan_qps_cycles": base.scanRates, "write_tps_cycles": base.writeRates,
		},
	}
	ingest := float64(spec.n) / medianDur(run.builds).Seconds()
	ingestPerScan := median(run.buildsPerScan)
	if spec.mutable {
		ingest = base.writeTPS()
		ingestPerScan = ingest / base.scanQPS()
	}
	// The figures in the machine's own time go in the record and, traced, in
	// the per-layer metrics; the end-to-end ones take the scan as the clock.
	out.record["search_qps"] = base.searchQPS()
	out.record["search_p50_us"] = us(float64(percentile(base.searchLat, 50)))
	out.record["ingest_tuples_per_s"] = ingest
	if !traced {
		out.metrics = map[string]float64{
			"setup_s":          median(run.setupsNominal),
			"speedup_vs_scan":  base.speedup(),
			"search_p50_scans": base.p50Scans(),
			"ingest_per_scan":  ingestPerScan,
			"mem_mb":           quantile(base.rssMB, 0.75),
		}
		return out, nil
	}
	m := tr.m
	m["trace_overhead_ratio"] = run.traced.searchQPS() / base.searchQPS()
	m["client.search_qps"] = base.searchQPS()
	m["client.request_p50_us"] = us(float64(percentile(base.searchLat, 50)))
	m["client.request_p99_us"] = us(float64(tailV))
	if spec.mutable {
		_, wTail := tail(base.writeLat, 99)
		m["client.write_tps"] = base.writeTPS()
		m["client.write_p50_us"] = us(float64(percentile(base.writeLat, 50)))
		m["client.write_p99_us"] = us(float64(wTail))
	}
	out.metrics = m
	out.record["traced_samples"] = len(tr.samples)
	out.record["replay_errors"] = tr.replayErrs
	out.record["untraced_search_qps"] = base.searchQPS()
	return out, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
