#!/usr/bin/env bash
# Engine-observatory smoke: run oosim on the 16-node acceptance topology
# with the causality ledger and a 4-way shard profile on, then render every
# `ooctl engine` view — chains must name at least one mergeable edge with a
# concrete events-saved count, shards must print the cross-partition matrix
# and a positive conservative-sync window, and every view plus the report
# itself must be byte-identical across invocations. A second ledger-off run
# holds the hot path to its allocation budget. CI runs this via
# `make engine-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/oosim" ./cmd/oosim
go build -o "$tmp/ooctl" ./cmd/ooctl

run_oosim() {
    "$tmp/oosim" -nodes 16 -arch rotornet-vlb -workload rpc -load 0.3 \
        -duration-ms 20 -seed 7 \
        -engine-ledger -engine-partitions 4 -engine-out "$1" \
        >"$tmp/out.log" 2>"$tmp/err.log"
}

run_oosim "$tmp/run.engine.json"
[ -s "$tmp/run.engine.json" ] || { echo "oosim wrote no engine report"; cat "$tmp/err.log"; exit 1; }

# The report file itself is deterministic: same binary, same seed, same
# bytes modulo the manifest's wall-clock start (the one per-invocation
# field; comparison tooling ignores it too).
run_oosim "$tmp/run2.engine.json"
for f in run run2; do
    sed 's/"started_at": *"[^"]*"/"started_at": ""/' "$tmp/$f.engine.json" >"$tmp/$f.masked.json"
done
cmp "$tmp/run.masked.json" "$tmp/run2.masked.json" || { echo "engine report not deterministic"; exit 1; }

# Chains: the merge analysis must name concrete edges and totals. The
# constant-delay hops are fused — links schedule switch ingress directly and
# the optical fabric relays without an event of its own — so the fabric's
# arrival schedules the far switch's ingress and no fabric.optical event
# runs.
"$tmp/ooctl" engine chains "$tmp/run.engine.json" | tee "$tmp/chains.txt"
grep -q 'mergeable edges' "$tmp/chains.txt"
grep -q 'link.deliver -> switch.ingress' "$tmp/chains.txt"
if grep -q 'fabric.optical' "$tmp/chains.txt"; then
    echo "the optical relay still runs as its own event"; exit 1
fi
grep -q 'total events saved if merged' "$tmp/chains.txt"
if grep -q 'total events saved if merged: 0 ' "$tmp/chains.txt"; then
    echo "merge analysis found no savings on the acceptance workload"; exit 1
fi

# Pressure: push-rate split and the occupancy histogram must render.
"$tmp/ooctl" engine pressure "$tmp/run.engine.json" >"$tmp/pressure.txt"
grep -q 'pushes:    wheel=' "$tmp/pressure.txt"
grep -q 'cursor=' "$tmp/pressure.txt"
grep -q 'sorts:     insertion=' "$tmp/pressure.txt"
grep -q 'bucket occupancy' "$tmp/pressure.txt"
grep -q 'pool' "$tmp/pressure.txt"

# Shards: 4-way matrix with real cross-partition flow and a positive
# minimum lookahead — the conservative-sync window for ROADMAP item 1.
"$tmp/ooctl" engine shards "$tmp/run.engine.json" | tee "$tmp/shards.txt"
grep -q 'partitions: 4' "$tmp/shards.txt"
grep -q 'min cross-partition lookahead' "$tmp/shards.txt"
if grep -q 'min cross-partition lookahead: none' "$tmp/shards.txt"; then
    echo "no cross-partition events on a 16-node VLB net"; exit 1
fi

# Every view renders byte-identically on a second pass.
for view in chains pressure shards; do
    "$tmp/ooctl" engine "$view" "$tmp/run.engine.json" >"$tmp/$view.2.txt"
    cmp "$tmp/$view.txt" "$tmp/$view.2.txt" || { echo "engine $view render not deterministic"; exit 1; }
done

# Ledger off (the default) keeps the hot path at its allocation budget:
# the observatory must be zero-cost when not attached.
go test -run '^$' -bench 'BenchmarkEndToEndPacketRate$' -benchtime 100x -benchmem . | tee "$tmp/allocs.txt"
awk '/^BenchmarkEndToEndPacketRate/ { seen=1; a=$(NF-1)+0; if (a > 150) { printf "FAIL: %d allocs/op exceeds the 150 ceiling with the ledger off\n", a; exit 1 } printf "allocs/op gate: %d <= 150\n", a } END { if (!seen) { print "FAIL: benchmark did not run"; exit 1 } }' "$tmp/allocs.txt"

echo "engine smoke OK"
