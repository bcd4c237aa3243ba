# Tier-1: what every change must keep green.
.PHONY: build test check bench bench-smoke sweep-smoke obsv-smoke trace-smoke regress-smoke daware-smoke engine-smoke diverge-smoke

build:
	go build ./...

test: build
	go test ./...

# Tier-2 gate: static analysis, the race detector over the engine and all
# device/protocol packages, and the system-level invariant bundle. CI runs
# this target. experiments/ is excluded from the race pass only because its
# drivers regenerate entire paper tables (~10x slower under -race, past any
# sane CI budget); it holds no goroutines of its own and is covered by the
# tier-1 `make test`. The last step fuzzes the event scheduler against a
# container/heap reference beyond its committed corpus; minimization is
# capped so the 10 s budget goes to new inputs.
check: build
	go vet ./...
	go build -tags simdebug ./...
	go test -tags simdebug ./internal/core ./internal/sim ./cmd/ooctl
	go test -race . ./cmd/... ./internal/...
	go test -run TestInvariants .
	go test -run '^$$' -fuzz '^FuzzSchedulerVsHeap$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/sim

bench:
	go test -run xxx -bench . -benchtime 3x .

# One iteration of every benchmark in the repo: catches benchmarks that no
# longer compile or crash without paying for stable timings, then holds the
# end-to-end hot path to its allocation budget — the pooled packet
# lifecycle runs ~24 allocs/op at steady state, so anything above 150
# means a leaked per-packet or per-event allocation crept back in. CI runs
# this.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
	go test -run '^$$' -bench 'BenchmarkEndToEndPacketRate$$' -benchtime 100x -benchmem . | tee /tmp/openoptics-allocs.txt
	awk '/^BenchmarkEndToEndPacketRate/ { seen=1; a=$$(NF-1)+0; if (a > 150) { printf "FAIL: %d allocs/op exceeds the 150 ceiling\n", a; exit 1 } printf "allocs/op gate: %d <= 150\n", a } END { if (!seen) { print "FAIL: benchmark did not run"; exit 1 } }' /tmp/openoptics-allocs.txt

# Race-detector smoke of the sweep orchestrator: a tiny grid on 4 workers,
# run fresh then resumed (the resume must skip everything). CI runs this.
sweep-smoke:
	rm -rf /tmp/oosweep-smoke
	go run -race ./cmd/oosweep run -spec testdata/sweep_smoke.json -out /tmp/oosweep-smoke -jobs 4
	go run -race ./cmd/oosweep resume -spec testdata/sweep_smoke.json -out /tmp/oosweep-smoke -jobs 4

# Live-observability smoke: oosim -http serving mid-run, /metrics and
# /snapshot well-formed, ooctl watch renders a frame, SIGINT exits 130.
# The obsv package itself runs under -race as part of `make check`.
obsv-smoke:
	bash scripts/obsv_smoke.sh

# Trace-analytics smoke: oosim -trace-out through every `ooctl trace` view,
# attribution identity clean, Perfetto export valid and deterministic,
# corrupt-line tolerance surfaced. CI runs this.
trace-smoke:
	bash scripts/trace_smoke.sh

# Regression-gate smoke: replay the committed baseline sweep, `ooctl
# regress` passes the equal run and catches the injected-5%-latency fixture
# (exit 3), reports are byte-deterministic, provenance reaches every
# artifact, -version answers on all four CLIs. CI runs this.
regress-smoke:
	bash scripts/regress_smoke.sh

# Demand-aware control-plane smoke: the committed daware sweep at -jobs 1
# and -jobs 4 must match byte for byte, the aware policy must hot-swap at
# least once and beat the oblivious baseline on median FCT, and the control
# loop's counters must reach the exported metrics. CI runs this.
daware-smoke:
	bash scripts/daware_smoke.sh

# Engine-observatory smoke: oosim with the causality ledger + 4-way shard
# profile on the 16-node acceptance topology, every `ooctl engine` view
# byte-deterministic, the merge analysis naming concrete savings, and the
# ledger-off hot path held to its allocation ceiling. CI runs this.
engine-smoke:
	bash scripts/engine_smoke.sh

# Determinism-auditor smoke: identical oosim runs produce byte-identical
# digest journals and `ooctl diverge` exit 0; a run with one same-instant
# event pair swapped (simdebug perturbation) exits 3 with the exact event
# named; reports byte-deterministic; digest-off hot path held to its
# allocation ceiling. CI runs this.
diverge-smoke:
	bash scripts/diverge_smoke.sh
