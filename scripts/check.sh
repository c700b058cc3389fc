#!/bin/sh
# Full pre-merge gate for environments without make, the steps of
# `make check`: gofmt, vet, build, the race-detector test sweep, the
# benchmark module's self-tests, short fuzz passes, the hot-path budget
# guards (which record BENCH_*.json), and the analyze, sink and lab
# smokes.
set -eux

cd "$(dirname "$0")/.."

# Formatting: fails listing every Go file gofmt would change.
out=$(gofmt -l .)
if [ -n "$out" ]; then echo "gofmt -l:"; echo "$out"; exit 1; fi

go vet ./...
go build ./...
go test -race ./...
# The benchmark's self-tests: e2ebench/ is its own module, which ./...
# from the root never reaches. TestTracedMatchesUntraced pins RunFlows'
# exact call and event order.
go -C e2ebench vet ./...
go -C e2ebench test ./...
# Fault-injection paths again under the race detector with full (non
# -short) sweeps, then a short fuzz pass over the two external-input
# parsers (the Mahimahi trace reader and the FaultPlan JSON decoder).
go test -race -count=1 ./internal/netem/faults/ ./internal/integration/
# The parallel sweep paths (worker pool, per-job contexts, registry
# merge) once more under the race detector, then the timed serial-vs-
# parallel suite, recorded into BENCH_sweep.json for the perf trajectory.
go test -race -count=1 ./internal/exp/ ./internal/sweep/
BENCH_SWEEP=1 go test ./internal/exp/ -run TestBenchSweep -count=1 -v
go test -run=NONE -fuzz=FuzzParseMahimahi -fuzztime=10s ./internal/trace/
go test -run=NONE -fuzz=FuzzParsePlan -fuzztime=10s ./internal/netem/faults/
go test -run=NONE -fuzz=FuzzPlanMutate -fuzztime=10s ./internal/netem/faults/
go test -run=NONE -fuzz=FuzzParseTopo -fuzztime=10s ./internal/exp/
TELEMETRY_BENCH_GUARD=1 go test ./internal/telemetry/ -run TestNopTracerBudget -count=1 -v
ANALYZE_BENCH_GUARD=1 go test ./internal/analyze/ -run TestFeedBudget -count=1 -v
# Event-engine hot path: 0 allocs/event + ns/event budget on the pooled
# callback path, then record engine events/sec and netem packets/sec
# into BENCH_core.json for the perf trajectory (baseline preserved).
CORE_BENCH_GUARD=1 go test ./internal/sim/ -run TestEngineBudget -count=1 -v
CORE_BENCH=1 CORE_BENCH_GUARD=1 go test ./internal/netem/ -run TestBenchCore -count=1 -v
# Flight-recorder hot path: the always-on ring append must stay 0
# allocs and <= 50 ns/event; the measurement is recorded as the
# "flight" block of BENCH_core.json.
FLIGHT_BENCH_GUARD=1 go test ./internal/telemetry/ -run TestFlightEmitBudget -count=1 -v
# Time-series collector hot path: the per-event downsampling feed must
# stay 0 allocs in steady state and <= 50 ns/event; the measurement is
# recorded as the "timeseries" block of BENCH_core.json.
TIMESERIES_BENCH_GUARD=1 go test ./internal/telemetry/ -run TestTimeSeriesBudget -count=1 -v
# Agent-inference hot path: per-flow PPO.Act baseline vs the batched
# evaluation path (one actor GEMM per cohort + seeded noise) at batch
# 1/16/256, recorded into BENCH_nn.json with the >=4x inferences/sec
# floor at batch 256 and the zero-alloc invariant armed.
NN_BENCH=1 NN_BENCH_GUARD=1 go test ./internal/rl/ -run TestBenchNN -count=1 -v
# Multi-hop hot path: hop traversals/sec and allocs/packet over a
# 3-hop chain, recorded as the "topo" block of BENCH_core.json with
# the <1 alloc/packet bound and throughput floor armed.
TOPO_BENCH=1 TOPO_BENCH_GUARD=1 go test ./internal/netem/ -run TestBenchTopo -count=1 -v
# Trace→analytics smoke: record a short two-flow run with -trace-out,
# validate the stream against the event schema, pipe it through
# `libra-trace analyze -json`, and assert the report parses and covers
# every flow with completed control cycles.
tmp=$(mktemp -d)
go run ./cmd/libra-sim -cca c-libra,c-libra -capacity 24 -dur 5s -seed 7 -trace-out "$tmp/events.jsonl" >/dev/null
go run ./cmd/libra-trace -validate "$tmp/events.jsonl"
go run ./cmd/libra-trace analyze -json "$tmp/events.jsonl" | go run ./scripts/analyzecheck -flows 2
rm -rf "$tmp"
# Sink smoke: each cliutil.Rig CLI (sim, bench, lab, train) run small
# with every sink on; traces must validate with no truncated tail and
# the JSON snapshots must parse.
sh scripts/sinksmoke.sh
# Robustness-lab smoke (tiny budgets, 2 CCAs): adversarial search, a
# replay of the discovered spec with a forensic flight dump, and a
# deterministic tournament leaderboard. Then record the lab's
# scenarios/sec into BENCH_lab.json with the throughput floor armed.
tmp=$(mktemp -d)
go run ./cmd/libra-lab search -cca cubic -budget 16 -dur 3s -seed 7 -o "$tmp/worst.json" -flight-out "$tmp/dumps"
go run ./cmd/libra-lab replay -spec "$tmp/worst.json"
go run ./cmd/libra-lab tournament -cca cubic,bbr -budget 14 -dur 3s -seed 7
rm -rf "$tmp"
LAB_BENCH=1 LAB_BENCH_GUARD=1 go test ./internal/lab/ -run TestBenchLab -count=1 -v
