#!/usr/bin/env bash
# BENCHMARK.json's command: builds the harness into .bench_build/ under the
# working directory (the root of a checkout) and runs it with the driver's
# arguments. The Go build cache and temporary files are kept there too, so a
# run reads and writes nothing outside the checkout and needs no network.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$out/harness" .
exec "$out/harness" "$@"
