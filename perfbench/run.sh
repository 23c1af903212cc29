#!/usr/bin/env bash
# Builds the benchmark harness and pimfarm from source into .bench_build/
# and runs one workload; the arguments pass through to the harness:
#
#   bash perfbench/run.sh --workload frame-atfim --seed 1 --seconds 13 --trace 0
#
# Run it from the root of a checkout. Everything it writes (Go build cache,
# binaries, result documents, traces, server logs) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOMAXPROCS=2

go build -o "$out/bin/pimfarm" ./cmd/pimfarm >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" "$@"
