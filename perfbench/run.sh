#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload construct --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. Every file it writes, the Go build
# cache included, stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
