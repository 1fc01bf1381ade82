#!/usr/bin/env bash
# Builds and runs the ehbench benchmark from the repository root:
#
#	bash ehbench/run.sh --workload cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries and each run's scratch
# directory (removed when the run ends).
set -euo pipefail
root="$(pwd)"
bb="$root/.bench_build"
mkdir -p "$bb/bin" "$bb/tmp"
export GOCACHE="$bb/gocache" GOPATH="$bb/gopath" GOTMPDIR="$bb/tmp"
export GOFLAGS= GOENV=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/ehbench" && go build -o "$bb/bin/ehbench" .)
exec "$bb/bin/ehbench" -root "$root" "$@"
