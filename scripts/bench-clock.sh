#!/usr/bin/env bash
# Where did the linker put the benchmark's placement-sensitive loops? Every
# scan-normalised metric (speedup_vs_scan, search_p50_scans, ingest_per_scan,
# setup_s) is measured against main.(*oracle).search in the harness, and that
# loop runs about 20% faster when its address is ≡ 0 (mod 64) than when it is
# ≡ 32; the mrjoin kernels and the wire and router loops move their workloads
# the same way. Two commits whose residues differ cannot be compared. This
# builds the harness exactly as benchmark/run.sh does, prints each symbol's
# address and residue, and exits non-zero when any residue is not the one in
# the table below (the values the metrics have been recorded at).
#
#   scripts/bench-clock.sh [residue | symbol=residue ...]
#
# A bare number overrides the clock's residue; symbol=residue overrides any
# entry, e.g. 'haindex/internal/vector.covariance=32' (the covariance kernel
# that Covariance and PCATopK call).
set -eu
cd "$(dirname "$0")/.."
want=(
	'main.(*oracle).search=32'
	'haindex/internal/vector.covariance=0'
	'haindex/internal/wire.ReadFrame=0'
	'haindex/internal/client.(*Router).fanOut=32'
	'haindex/internal/hash.LearnSpectral=0'
)
for arg in "$@"; do
	case "$arg" in
	*=*) sym=${arg%=*} ;;
	*) sym='main.(*oracle).search' arg="$sym=$arg" ;;
	esac
	found=
	for i in "${!want[@]}"; do
		if [ "${want[$i]%=*}" = "$sym" ]; then
			want[$i]=$arg found=1
		fi
	done
	if [ -z "$found" ]; then
		echo "bench-clock: $sym is not in the table" >&2
		exit 2
	fi
done
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$out/harness" .
syms=$(go tool nm -n "$out/harness")
bad=0
for entry in "${want[@]}"; do
	sym=${entry%=*} expect=${entry##*=}
	addr=$(awk -v s="$sym" '$3 == s { print $1 }' <<<"$syms")
	if [ -z "$addr" ]; then
		echo "bench-clock: $sym not found in $out/harness" >&2
		exit 2
	fi
	got=$((0x$addr % 64))
	mark=ok
	if [ "$got" -ne "$expect" ]; then
		mark=DIFFERS bad=1
	fi
	printf '%-45s 0x%s  residue %2d (mod 64), expected %2d  %s\n' "$sym" "$addr" "$got" "$expect" "$mark"
done
exit "$bad"
