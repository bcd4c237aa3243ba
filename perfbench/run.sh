#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Build
# outputs, the Go build cache and span files stay under .bench_build at
# the checkout root. Arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload rotor16-rpc --seed 7 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
