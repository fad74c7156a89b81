#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments. Every build output, cache and report stays under
# .bench_build at the root of the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOENV=off GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/results" "$@"
