package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/gray"
	"haindex/internal/hash"
	"haindex/internal/mapreduce"
	"haindex/internal/mrjoin"
	"haindex/internal/vector"
	"haindex/internal/wire"
)

const (
	joinThreshold = 3
	joinSampleOne = 2 // 1 in this many S rows goes through the brute join: the oracle and the scan baseline
)

// resetPeak restarts the kernel's record of this process's peak resident set
// (VmHWM), so the run record's mem_hwm_mb is the pipeline's own peak and not
// the fixtures'. Where the kernel refuses, the peak simply includes them.
func resetPeak() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runJoinWorkload runs the offline pipeline in-process: Preprocess, then
// {BuildGlobalIndex + HammingJoinA}, a brute join of the sampled S rows (the
// oracle and the clock) and {BuildShardSnapshots}, over and over until the
// window is used up (JoinReps times at least), medians reported. On this
// workload a "request" is one build+join repetition: speedup_vs_scan is S
// tuples joined per second of it over the brute join's, search_p50_scans its
// wall in brute-join rows.
func runJoinWorkload(e *env, traced bool) (*outcome, error) {
	n := e.sz.JoinN
	// R and S are the even and odd rows of one draw from the collection:
	// distinct tuples out of the same clusters, so the join has pairs to find.
	all := nuswideLike(2*n, e.seed)
	r := make([]vector.Vec, n)
	s := make([]vector.Vec, n)
	for i := range r {
		r[i], s[i] = all[2*i], all[2*i+1]
	}
	opt := mrjoin.Options{Bits: codeBits, Partitions: shards, Nodes: shards, Threshold: joinThreshold, Seed: collectionSeed}
	rec := newRecorder()

	// Preprocess learns the hash and the pivots from a training draw of the
	// collection that does not depend on the seed, as a deployment trains its
	// hash once and then hashes what arrives: the spectral hash learned from
	// one draw and from another differ enough to move the number of pairs
	// within the threshold, and the join's cost, by a sixth.
	train := nuswideLike(2*n, collectionSeed)
	// The set-up's clock: a scan slice before each cycle, over codes of
	// point's shape and number so that it costs what the online workloads'
	// scan costs (the brute join below has no codes before there is a hash).
	rng := rand.New(rand.NewSource(e.seed))
	clockCodes := clusteredCodes(rng, e.sz.PointN, codeBits)
	clock := newOracle(clockCodes, nil)
	clockQueries := queriesNear(rng, clockCodes, 4096, queryFlips)
	var pre *mrjoin.Preprocessed
	var setups []time.Duration
	var setupsNominal []float64
	for i, next := 0, 0; i < e.sz.SetupCycles && !e.setupsDone(setups); i++ {
		runtime.GC()
		qps, used := clock.scanFor(clockQueries, next, joinThreshold, callers, 2*e.sz.ScanSlice)
		next += used
		var err error
		t0 := time.Now()
		pre, err = mrjoin.Preprocess(train[:n], train[n:], opt)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		setupsNominal = append(setupsNominal, clock.nominalSeconds(setups[i], qps, callers))
		rec.add(-1, i, "mrjoin.Preprocess", rec.since(t0), rec.since(time.Now()), false)
	}
	train, clock, clockQueries = nil, nil, nil

	// Hand the fixtures' garbage back first, so the baseline is the live
	// inputs and not whatever the collector had yet to return.
	debug.FreeOSMemory()
	resetPeak()
	rssBefore := statusKB(os.Getpid(), "VmRSS")

	// The brute join over the very codes the pipeline hashed, for every
	// joinSampleOne-th S row, is the oracle; its rate is the speed-up's base.
	// It runs once per repetition, right after the job it is compared with,
	// so both see the same machine.
	rc := hash.HashAll(pre.Hash, r)
	sc := hash.HashAll(pre.Hash, s)
	orc := newOracle(rc, nil)
	var rows []int
	for sid := 0; sid < n; sid += joinSampleOne {
		rows = append(rows, sid)
	}
	want := make([][]int, len(rows))
	bruteJoin := func() {
		var wg sync.WaitGroup
		for t := 0; t < callers; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				for j := t; j < len(rows); j += callers {
					want[j] = orc.search(want[j][:0], sc[rows[j]], joinThreshold)
				}
			}(t)
		}
		wg.Wait()
	}

	var joinWall, snapWall, scanWall []time.Duration
	var speedups, jobScans, snapsPerScan, rssMB []float64
	var g *mrjoin.GlobalIndex
	var jr *mrjoin.JoinResult
	var snaps *mrjoin.ShardSnapshots
	snapDir := filepath.Join(e.dir, "mrjoin-shards")
	defer os.RemoveAll(snapDir)
	deadline := time.Now().Add(e.window)
	for i := 0; i < e.sz.JoinReps || time.Now().Before(deadline); i++ {
		var err error
		t0 := time.Now()
		if g, err = mrjoin.BuildGlobalIndex(r, pre, opt); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if jr, err = mrjoin.HammingJoinA(s, g, pre, opt); err != nil {
			return nil, err
		}
		t2 := time.Now()
		joinWall = append(joinWall, t2.Sub(t0))
		jobSpans(rec, i, "mrjoin.BuildGlobalIndex", t0, t1, g.Metrics, g.Merge)
		jobSpans(rec, i, "mrjoin.HammingJoinA", t1, t2, jr.Metrics, 0)

		runtime.GC() // the job's garbage is not collected beside the brute join
		scan := timed(bruteJoin)
		scanWall = append(scanWall, scan)
		scanQPS := float64(len(rows)) / scan.Seconds()
		speedups = append(speedups, float64(n)/t2.Sub(t0).Seconds()/scanQPS)
		jobScans = append(jobScans, t2.Sub(t0).Seconds()*scanQPS)

		t0 = time.Now()
		if snaps, err = mrjoin.BuildShardSnapshots(r, pre, opt, snapDir, 0); err != nil {
			return nil, err
		}
		snapWall = append(snapWall, time.Since(t0))
		jobSpans(rec, i, "mrjoin.BuildShardSnapshots", t0, time.Now(), snaps.Metrics, 0)
		snapsPerScan = append(snapsPerScan, float64(n)/snapWall[i].Seconds()/scanQPS)
		rssMB = append(rssMB, float64(statusKB(os.Getpid(), "VmRSS")-rssBefore)/1024)
	}
	hwmMB := float64(statusKB(os.Getpid(), "VmHWM")-rssBefore) / 1024
	scan := medianDur(scanWall)

	got := make(map[int][]int)
	for _, p := range jr.Pairs {
		if p.SID%joinSampleOne == 0 {
			got[p.SID] = append(got[p.SID], p.RID)
		}
	}
	failed := 0
	for j, sid := range rows {
		sort.Ints(got[sid])
		if !equalInts(got[sid], want[j]) {
			failed++
		}
	}

	join := medianDur(joinWall)
	snap := medianDur(snapWall)
	out := &outcome{
		attempted: len(rows), failed: failed,
		record: map[string]interface{}{
			"n": n, "bits": codeBits, "h": joinThreshold, "batch": n, "shards": shards,
			"dim": dataset.NUSWide.Dim, "reps": len(joinWall), "pairs": len(jr.Pairs),
			"setup_cycles_s": seconds(setups), "join_wall_s": seconds(joinWall), "snapshot_wall_s": seconds(snapWall),
			"oracle_rows": len(rows), "scan_wall_s": seconds(scanWall), "mem_hwm_mb": hwmMB, "mem_rss_reps_mb": rssMB,
		},
	}
	// The figures in the machine's own time go in the record and, traced, in
	// the per-layer metrics; the end-to-end ones take the brute join as the
	// clock, repetition by repetition.
	out.record["search_qps"] = float64(n) / join.Seconds()
	out.record["search_p50_us"] = us(float64(join.Nanoseconds()))
	out.record["ingest_tuples_per_s"] = float64(n) / snap.Seconds()
	if !traced {
		out.metrics = map[string]float64{
			"setup_s":          median(setupsNominal),
			"speedup_vs_scan":  median(speedups),
			"search_p50_scans": median(jobScans),
			"ingest_per_scan":  median(snapsPerScan),
			"mem_mb":           quantile(rssMB, 0.75),
		}
		return out, nil
	}

	// Per-layer figures come from the last repetition's public read-outs and
	// from timing each layer's entry point over the same inputs.
	m := map[string]float64{
		// Spans here wrap whole jobs, not requests: recording them costs
		// nothing measurable, and there is no untraced twin to compare.
		"trace_overhead_ratio":      1,
		"client.search_qps":         float64(n) / join.Seconds(),
		"client.request_p50_us":     us(float64(join.Nanoseconds())),
		"bitvec.scan_ns_per_code":   float64(scan.Nanoseconds()) * callers / (float64(len(rows)) * float64(n)),
		"mapreduce.build_map_s":     g.Metrics.MapWall.Seconds(),
		"mapreduce.build_shuffle_s": g.Metrics.ShuffleWall.Seconds(),
		"mapreduce.build_reduce_s":  g.Metrics.ReduceWall.Seconds(),
		"mapreduce.join_map_s":      jr.Metrics.MapWall.Seconds(),
		"mapreduce.join_shuffle_s":  jr.Metrics.ShuffleWall.Seconds(),
		"mapreduce.join_reduce_s":   jr.Metrics.ReduceWall.Seconds(),
		"mapreduce.shuffle_bytes":   float64(g.Metrics.ShuffleBytes + jr.Metrics.ShuffleBytes + snaps.Metrics.ShuffleBytes),
		"mapreduce.broadcast_bytes": float64(g.Metrics.BroadcastBytes + jr.Metrics.BroadcastBytes + snaps.Metrics.BroadcastBytes),
		"mapreduce.reducer_skew":    jr.Metrics.Skew(),
		"mapreduce.attempts":        float64(g.Metrics.Attempts + jr.Metrics.Attempts + snaps.Metrics.Attempts),
		"mrjoin.join_tuples_per_s":  float64(2*n) / join.Seconds(),
		"mrjoin.build_codes_per_s":  float64(n) / snap.Seconds(),
		"mrjoin.merge_s":            g.Merge.Seconds(),
		"mrjoin.pairs":              float64(len(jr.Pairs)),
		"mrjoin.snapshot_job_s":     snaps.Build.Seconds(),
		"hash.learn_s":              pre.LearnTime.Seconds(),
		"histo.pivots_s":            pre.PivotTime.Seconds(),
		"hash.encode_ns_per_vec":    float64(timed(func() { hash.HashAll(pre.Hash, r) }).Nanoseconds()) / float64(n),
	}
	var bytes int64
	for _, p := range snaps.Paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		bytes += st.Size()
	}
	m["core.snapshot_bytes_per_code"] = float64(bytes) / float64(n)

	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sorted := append([]bitvec.Code(nil), rc...)
	m["gray.sort_s"] = timed(func() { gray.Sort(sorted, ids) }).Seconds()
	var streamErr error
	m["core.stream_write_s"] = timed(func() {
		streamErr = streamSnapshot(filepath.Join(snapDir, "probe.hasn"), wire.SnapshotMeta{Parts: 1, Length: codeBits}, sorted, ids)
	}).Seconds()
	if streamErr != nil {
		return nil, streamErr
	}
	var dyn *core.DynamicIndex
	var frozen *core.FrozenIndex
	m["core.build_dynamic_s"] = timed(func() { dyn = core.BuildDynamic(rc, nil, core.Options{}) }).Seconds()
	m["core.freeze_s"] = timed(func() { frozen = core.Freeze(dyn) }).Seconds()
	// The reducer-side batch search: every sampled S code against R's index.
	probes := make([]bitvec.Code, len(rows))
	for j, sid := range rows {
		probes[j] = sc[sid]
	}
	var work core.SearchStats
	d := timed(func() { _, work = core.SearchBatch(frozen, probes, joinThreshold, 1) })
	m["core.ha_search_ns"] = float64(d.Nanoseconds()) / float64(len(probes))
	m["core.ha_dist_per_query"] = float64(work.DistanceComputations) / float64(len(probes))
	m["core.ha_nodes_per_query"] = float64(work.NodesVisited) / float64(len(probes))

	out.metrics = m
	if e.traceOut != "" {
		if err := rec.write(e.traceOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// jobSpans records one MapReduce job and, under it, the phases its Metrics
// report, laid end to end from the job's start (the runtime reports their
// lengths, not their positions).
func jobSpans(rec *recorder, rep int, name string, start, end time.Time, mt mapreduce.Metrics, merge time.Duration) {
	at := rec.since(start)
	job := rec.add(-1, rep, name, at, rec.since(end), false)
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"mapreduce map", mt.MapWall}, {"mapreduce shuffle", mt.ShuffleWall}, {"mapreduce reduce", mt.ReduceWall}, {"core.Merge", merge}} {
		if ph.d > 0 {
			rec.add(job, rep, fmt.Sprintf("%s (%s)", ph.name, name), at, at+ph.d.Nanoseconds(), true)
			at += ph.d.Nanoseconds()
		}
	}
}
