#!/usr/bin/env bash
# Where did the linker put the benchmark's clock? Every scan-normalised
# metric (speedup_vs_scan, search_p50_scans, ingest_per_scan, setup_s) is
# measured against main.(*oracle).search in the harness, and that loop runs
# about 20% faster when its address is ≡ 0 (mod 64) than when it is ≡ 32, so
# two commits whose residues differ cannot be compared. This builds the
# harness exactly as benchmark/run.sh does, prints the address and its
# residue, and exits non-zero when the residue is not the expected one
# (default 32, the value the metrics have been recorded at).
#
#   scripts/bench-clock.sh [expected-residue]
set -eu
cd "$(dirname "$0")/.."
want="${1:-32}"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$out/harness" .
addr=$(go tool nm -n "$out/harness" | awk '$3 == "main.(*oracle).search" { print $1 }')
if [ -z "$addr" ]; then
	echo "bench-clock: main.(*oracle).search not found in $out/harness" >&2
	exit 2
fi
got=$((0x$addr % 64))
echo "main.(*oracle).search at 0x$addr, residue $got (mod 64), expected $want"
[ "$got" -eq "$want" ]
