#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload paper-exact --seed 1 --seconds 10 --trace 0
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$out" "$@"
