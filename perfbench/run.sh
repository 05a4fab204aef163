#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the checkout's root, e.g.
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced runs' spans stay under
# .bench_build in the checkout; nothing is downloaded.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
