// Command haserve hosts one HA-Index shard over the wire protocol. It loads
// a partition snapshot written by "haidx shard" (or internal/wire directly),
// binds a TCP listener, and answers batched Hamming-select, top-k, and stats
// requests until interrupted.
//
// Usage:
//
//	haserve -snapshot shards/shard-00000.hasn -addr 127.0.0.1:7070
//	haserve -snapshot shards/shard-00001.hasn -addr 127.0.0.1:0 -port-file s1.addr
//
// With -addr ending in :0 the kernel picks a free port; -port-file writes
// the bound address for scripts to pick up. The -drop-requests and
// -shed-requests flags inject deterministic faults (by server-wide request
// number) for smoke tests of client retry, failover, and shed backoff: a
// dropped connection is retried on the next replica, a shed is backed off
// once. An error frame is not a fault to retry — it is the server's answer,
// and every replica would give the same one. -debug-addr binds a loopback
// HTTP endpoint exposing the shard's latency histograms (/debug/obs), recent
// request traces (/debug/traces), and pprof.
//
// -shed-after DUR bounds how long a search or top-k may wait for admission
// before the shard sheds it with a polite overload frame: the client backs
// off once and asks the next replica instead of counting a replica failure.
//
// Every shard is served as an LSM shard (internal/lsm); an immutable one is
// read-only, of one segment. Every segment is planned as it joins the shard:
// all three engines (HA walk, multi-index hashing, brute scan) serve it, and
// a counted cost-based plan routes each request among them. Multi-index
// hashing and the scan read the segment's own leaf arena, so they add only
// MIH's key tables to the heap. A shard serves once its snapshot is mapped
// and plans it in the background, HA answering exactly until then: at 150k
// codes it binds about 1 ms after the map and plans in about 25 ms on a
// 2-core host. MIH's tables are counted into place in two passes, and the
// planner prices each engine by the work a few sample probes count — no
// clock — and stops running an engine once its work costs more than the
// scan. The same snapshot gives the same plan on every load. An engine is
// pinned per request, by the client's -engine hint, and runs on every
// planned segment. The lsm.search_ha/mih/scan counters and _ns histograms on
// /debug/obs count and time segment searches by engine.
//
// -mmap (default on) serves the snapshot zero-copy: the arena is aliased
// out of an mmap of the file, so the heap holds none of it (watch
// index.mapped_bytes vs index.heap_bytes on /debug/obs, where
// index.aux_heap_bytes is the auxiliary engines' share; the load.*_ns
// gauges, the start-up line and the exit summary break the load time down).
// -mmap=false and -mutable decode the same file onto the heap.
//
// With -mutable the snapshot seeds a writable LSM shard: the server then
// also accepts insert, delete, and seal frames (haquery
// -insert/-delete/-seal), sealing the memtable into frozen segments in the
// background past -memtable-max entries and compacting past -compact-at
// segments — the segments above the snapshot's, until a quarter of its rows
// are masked or they hold half as many rows as it does. Every seal and
// compaction plans the segment it writes; HA answers for a segment only
// while its plan is being counted (lsm.unplanned_segments). The metric
// registry is the shard's, read-only or mutable, and the server counts on it:
// /debug/obs shows the lsm.* instruments beside requests, queries and req.*.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"haindex/internal/lsm"
	"haindex/internal/server"
	"haindex/internal/wire"
)

func main() {
	var (
		snapshot  = flag.String("snapshot", "", "shard snapshot file (required)")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address (\":0\" picks a free port)")
		searchers = flag.Int("searchers", 0, "searcher pool size (0 = GOMAXPROCS)")
		portFile  = flag.String("port-file", "", "write the bound address to this file")
		dropReqs  = flag.String("drop-requests", "", "comma-separated request numbers whose connection is dropped")
		debugAddr = flag.String("debug-addr", "", "also serve /debug/obs, /debug/traces, /debug/pprof on this HTTP address (e.g. 127.0.0.1:7071; bind loopback only)")
		debugFile = flag.String("debug-port-file", "", "write the bound debug address to this file")
		shedAfter = flag.Duration("shed-after", 0, "admission-wait budget before a request is shed with a polite overload frame (0 disables; clients back off once and ask the next replica)")
		shedReqs  = flag.String("shed-requests", "", "comma-separated request numbers answered with a shed frame")
		idleTO    = flag.Duration("idle-timeout", 0, "drop connections idle longer than this (0 = 30s; negative is refused)")
		writeTO   = flag.Duration("write-timeout", 0, "per-response write deadline (0 = 30s; negative is refused)")
		mmapIdx   = flag.Bool("mmap", true, "serve the snapshot zero-copy out of an mmap of the file; -mmap=false decodes it onto the heap")

		mutable     = flag.Bool("mutable", false, "serve a writable LSM shard seeded from the snapshot (decoded onto the heap); accepts insert/delete/seal; the snapshot's segment is planned in the background at start, and each seal and compaction plans the segment it writes")
		memtableMax = flag.Int("memtable-max", 0, "memtable entries before a background seal (0 = 4096, negative disables)")
		compactAt   = flag.Int("compact-at", 0, "segment count that triggers compaction after a seal (0 = 4, negative disables)")
	)
	flag.Parse()
	if *snapshot == "" {
		fatalf("-snapshot is required")
	}

	var faults *server.FaultPlan
	addFaults := func(csv string, add func(*server.FaultPlan, int64)) {
		if csv == "" {
			return
		}
		if faults == nil {
			faults = server.NewFaultPlan()
		}
		for _, part := range strings.Split(csv, ",") {
			req, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil || req < 0 {
				fatalf("invalid request number %q", part)
			}
			add(faults, req)
		}
	}
	addFaults(*dropReqs, func(p *server.FaultPlan, r int64) { p.DropRequest(r) })
	addFaults(*shedReqs, func(p *server.FaultPlan, r int64) { p.ShedRequest(r) })

	opts := server.Options{
		Searchers:    *searchers,
		Faults:       faults,
		ShedAfter:    *shedAfter,
		IdleTimeout:  *idleTO,
		WriteTimeout: *writeTO,
		Mmap:         *mmapIdx && !*mutable,
	}
	var s *server.Server
	var shard *lsm.Shard
	var err error
	if *mutable {
		// The decoded snapshot seeds the shard.
		meta, idx, rerr := wire.ReadSnapshotFile(*snapshot)
		if rerr != nil {
			fatalf("loading snapshot %s: %v", *snapshot, rerr)
		}
		shard = lsm.New(meta.Length, lsm.Options{MemtableMax: *memtableMax, CompactAt: *compactAt})
		if err = shard.Bootstrap(idx); err == nil {
			s, err = server.NewMutable(meta, shard, opts)
		}
	} else {
		s, err = server.LoadSnapshotFile(*snapshot, opts)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if err := s.Start(*addr); err != nil {
		fatalf("%v", err)
	}
	if *debugAddr != "" {
		da, err := s.StartDebug(*debugAddr)
		if err != nil {
			fatalf("starting debug endpoint: %v", err)
		}
		fmt.Printf("haserve: debug endpoint on http://%s/debug/obs\n", da)
		if *debugFile != "" {
			if err := os.WriteFile(*debugFile, []byte(da.String()+"\n"), 0o644); err != nil {
				fatalf("writing debug port file: %v", err)
			}
		}
	}
	bound := s.Addr().String()
	meta := s.Meta()
	fmt.Printf("haserve: shard %d/%d (%d-bit codes) on %s from %s\n",
		meta.Part, meta.Parts, meta.Length, bound, *snapshot)
	if !*mutable {
		g := s.Obs().Snapshot().Gauges
		fmt.Printf("haserve: serving after %s (map %s); planning in the background\n",
			time.Duration(g["load.total_ns"]), time.Duration(g["load.map_ns"]))
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			fatalf("writing port file: %v", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := s.Stats()
	s.Close()
	fmt.Printf("haserve: served %d requests (%d select + %d top-k queries, %d ids, %d errors, %d faults injected)\n",
		st.Requests, st.Queries, st.TopKQueries, st.IDsReturned, st.Errors, st.FaultsInjected)
	g := s.Obs().Snapshot().Gauges
	fmt.Printf("haserve: snapshot's segment planned in the background (mih build %s, plan %s)\n",
		time.Duration(g["load.mih_build_ns"]), time.Duration(g["load.plan_ns"]))
	if shard != nil {
		lst := shard.Stats()
		fmt.Printf("haserve: shard ended at %d tuples in %d segments + %d memtable entries (%d seals, %d compactions, epoch %d)\n",
			lst.Len, lst.Segments, lst.MemtableSize, lst.Seals, lst.Compactions, lst.Epoch)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "haserve: "+format+"\n", args...)
	os.Exit(1)
}
