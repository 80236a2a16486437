GO ?= go

.PHONY: all check build test test-race bench bench-query bench-frozen vet fmt-check fuzz fuzz-wire fuzz-arena bench-smoke bench-clock bench-startup bench-offline bench-lsm reqpath lsm-race smoke debug-smoke lsm-smoke experiments examples clean

all: build vet test

check: build vet fmt-check test test-race reqpath lsm-race fuzz-wire fuzz-arena bench-smoke debug-smoke lsm-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector pass over everything; the concurrency-heavy packages (the
# MapReduce runtime, the serving layer's server/client, the parallel
# builders) are all covered by running the whole module.
test-race:
	$(GO) test -race ./...

# Query-engine microbenchmarks (alloc counts must report 0 allocs/op for
# steady-state Searcher use) plus the SearchBatch throughput experiment,
# which writes BENCH_query.json.
bench: bench-query
	$(GO) test -bench=. -benchmem ./...

bench-query:
	$(GO) test -run=NONE -bench='Searcher|SearchBatch' -benchmem ./internal/core/
	$(GO) run ./cmd/habench -exp query

# Frozen-index microbenchmarks: freeze (compile) time, the direct build
# (BuildFrozen, beside the pointer build + freeze it replaces on the serving
# paths, at a streamed chunk's size and at three words a code) with the Gray
# sort under it, flat-walk search and top-k, and the v4 arena decode (the
# copy a host that cannot alias makes, and the aliasing every load runs),
# after bench-query's serial pointer-vs-frozen rows (serial_* and
# frozen_serial_* in BENCH_query.json; every SearchBatch run there is over
# the frozen index, the only batch path).
bench-frozen: bench-query
	$(GO) test -run=NONE -bench='Freeze|BuildFrozen|Frozen|DecodeArena' -benchmem ./internal/core/
	$(GO) test -run=NONE -bench='GraySort' -benchmem ./internal/gray/

# The request path's invariants by name, three times over under the race
# detector: one Write per frame from the router and from the server (a
# counting net.Conn), a batch of one searched on the connection's goroutine,
# the pipelined first attempt under every injected failure, the one-shed rule
# on a fake clock (one backoff, the next replica once, then ErrShed), and eight
# goroutines on one Router against a slow shard (lock order = shard order),
# and the reply path's allocation ceilings — one 16-query × 500-id request
# through the server's answerSearch and through the router's decode+merge —
# with the results-belong-to-the-caller check that the slabs make necessary,
# and the planner's decision as a load-time table read (no write, no
# allocation, the same plan from every goroutine).
# A second write per frame, or an id copy per query, should fail here, not in
# a benchmark.
reqpath:
	$(GO) test -race -count=3 -run 'OneWrite|ReadFrame|RunBatchStays|PipelinedFirstAttempt|ShedBackoffBoundedByDeadline|ShedSteersToLeastLoadedReplica|SharedRouterSlowShard|ReplyAllocs|BelongToTheCaller|PlanIsATable' ./internal/wire/ ./internal/server/ ./internal/client/ ./internal/planner/

# The LSM fold's race with the writes, three times over under the race
# detector: deletes and upserts that land between a compaction's snapshot and
# its swap must be masked in the segment it swaps in.
lsm-race:
	$(GO) test -race -count=3 -run 'MaskDuringFold' ./internal/lsm/

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzSectionTable -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzFromString -fuzztime=15s ./internal/bitvec/
	$(GO) test -fuzz=FuzzParseMutationFrames -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzStatsResp -fuzztime=30s ./internal/wire/

# Short fuzz smoke of the mutation-frame decoders and the StatsResp
# parse/append round-trip — cheap enough to run on every check. Each -fuzz
# pattern must match exactly one target, so the two fuzzers run as separate
# invocations.
fuzz-wire:
	$(GO) test -run=NONE -fuzz=FuzzParseMutationFrames -fuzztime=5s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzStatsResp -fuzztime=5s ./internal/wire/

# Short fuzz smoke of the HADX v4 arena section table: byte-level splats and
# truncations over the mmap-native layout must be rejected (or decode to an
# index that answers searches), never crash — in both alias and copy modes.
fuzz-arena:
	$(GO) test -run=NONE -fuzz=FuzzSectionTable -fuzztime=5s ./internal/core/

# The benchmark harness is a nested module the root's go vet/test ./... do
# not descend into; vet it and run its short tests so an API change in
# mih/planner/server/core/wire that breaks benchmark/ fails here.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The benchmark's clock is the harness's own scan, whose speed depends on
# where the linker places it, and four more harness loops move their
# workloads the same way (see scripts/bench-clock.sh): fails when any of the
# five is not at the residue the metrics were recorded at. Run it on both
# commits before comparing them; RESIDUE=0 checks the clock for the other
# placement, RESIDUE='symbol=residue ...' overrides any entry.
RESIDUE ?=
bench-clock:
	./scripts/bench-clock.sh $(RESIDUE)

# What a default haserve pays as it starts, at the benchmark's shard shape
# (150k clustered 64-bit codes, one frozen HA-Index): its background plan,
# MIH's four 16-bit key tables counted into place over the leaf arena, then
# the planner's counted grid, with allocation counts; and the MIH select the
# planner then serves with (the Gray half of 300k clustered codes; h=2 for
# point, 3 for churn and mrjoin, 8 for wide, and 10, inside the range MIH now
# wins; probes and verifications a query); then the load, LoadSnapshotFile
# over an mmap'd snapshot of that shape wrapped as a read-only shard, timed
# through its background plan landing (planned) and to its return alone, when
# the server already answers (ready); and one k=10 top-k request over that
# planned shard and over 150k uniform codes whose 10th neighbour is about 15
# bits out.
bench-startup:
	$(GO) test -run=NONE -bench='FromGroups|MIHSearch' -benchmem ./internal/mih/
	$(GO) test -run=NONE -bench='BenchmarkNew$$' -benchmem ./internal/planner/
	$(GO) test -run=NONE -bench='LoadSnapshotFile|TopK' -benchmem ./internal/server/

# Offline-pipeline microbenchmarks: phase 1's hash learning (LearnSpectral on
# 6,000 sampled 225-d vectors, 64 bits, the mrjoin Preprocess shape) and the
# covariance it starts from, the spectral-hash kernel, one map task's
# per-record work (decode, hash, route, emit), and a join reducer's search (30k
# probes through a 30k-code forest of two parts, h=3): on spectral-hashed
# NUS-WIDE-like codes, the HA block walk beside the planned search a job runs
# (MIH built over the forest's leaf arena and the plan counted, then the
# planned engine), and on clustered codes the block walk alone; with
# allocation counts.
bench-offline:
	$(GO) test -run=NONE -bench='Covariance' -benchmem ./internal/vector/
	$(GO) test -run=NONE -bench='SpectralHash|LearnSpectral' -benchmem ./internal/hash/
	$(GO) test -run=NONE -bench='RouteMapper|JoinReduce' -benchmem ./internal/mrjoin/
	$(GO) test -run=NONE -bench='SearchBatchFrozen' -benchmem ./internal/core/

# LSM microbenchmarks: one insert into a memtable filling to 4096 rows, one
# seal of those 4096 rows (the build readers and writers wait out, then the
# new segment's MIH and plan, off the lock), one full compaction of `churn`'s
# shape (100k base + 8 sealed memtables, ~123k survivors, its output planned
# too) and one h=3 select over the segment it leaves,
# and over `churn`'s stack between compactions (the base under two seals and
# half a memtable); each select reports its work a query by the engine the
# segments' plans picked (HA distances, MIH probes and verifications, scan
# groups), with allocation counts.
bench-lsm:
	$(GO) test -run=NONE -bench 'ShardInsert|ShardSeal|ShardCompact|ShardSearchCompacted|ShardSearchChurn' -benchmem ./internal/lsm/

# End-to-end smoke of the serving stack: build the CLIs, generate a tiny
# dataset, shard it, start two haserve processes (one fault-injected), query
# through haquery, and diff against the in-process oracle.
smoke:
	./scripts/smoke.sh

# Smoke plus the observability surface: shard 0 serves its HTTP debug
# endpoint, and the script asserts /debug/obs reports non-empty latency
# histograms, nonzero request/fault/planner counters, the mmap'd arena and
# the load.*_ns gauges. About 5 s over loopback, so it is part of `make check`.
debug-smoke:
	SMOKE_DEBUG=1 ./scripts/smoke.sh

# Smoke of the mutable (LSM) serving tier: restart the shards with -mutable,
# insert, delete, seal, and compact through haquery, and verify searches see
# every mutation. About 2 s, so it is part of `make check`.
lsm-smoke:
	SMOKE_LSM=1 ./scripts/smoke.sh

# Every paper-reproduction experiment at default scale, in-process: no
# server is started, and only BENCH_query.json is written.
experiments:
	$(GO) run ./cmd/habench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dedup
	$(GO) run ./examples/imagesearch
	$(GO) run ./examples/chemsearch
	$(GO) run ./examples/streaming
	$(GO) run ./examples/mrpipeline

clean:
	$(GO) clean ./...
