#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload explore-buck --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live in .bench_build/ at the
# root, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
