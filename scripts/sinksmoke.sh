#!/bin/sh
# Sink smoke for the four CLIs built on cliutil.Rig: run each one small
# with every sink it registers turned on, then check what the sinks
# left. Every -trace-out must pass `libra-trace -validate` and hold as
# many events as the CLI reported writing (fewer means a truncated
# tail); every -metrics-out and -timeseries-out snapshot must parse.
#
# Usage: sh scripts/sinksmoke.sh
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/libra-sim ./cmd/libra-bench ./cmd/libra-lab ./cmd/libra-train ./cmd/libra-trace ./scripts/jsoncheck

# run NAME CMD...: run CMD with the sinks every Rig CLI registers, all
# writing under $tmp/NAME, and keep its stdout there.
run() {
	d=$tmp/$1
	shift
	mkdir -p "$d"
	"$@" -metrics-out "$d/metrics.json" -timeseries-out "$d/ts.json" \
		-flight-out "$d/flight" -pprof 127.0.0.1:0 >"$d/stdout"
}

# check NAME: the trace (when the CLI has -trace-out) is valid and
# complete, and both snapshots parse.
check() {
	d=$tmp/$1
	if [ -f "$d/events.jsonl" ]; then
		wrote=$(sed -n 's/^wrote \([0-9]*\) events to .*/\1/p' "$d/stdout")
		valid=$("$tmp/libra-trace" -validate "$d/events.jsonl")
		if [ "$valid" != "$d/events.jsonl: $wrote events ok (schema v3)" ]; then
			echo "sinksmoke: $1: CLI wrote $wrote events, validate says: $valid" >&2
			exit 1
		fi
	fi
	"$tmp/jsoncheck" "$d/metrics.json" "$d/ts.json"
	echo "sinksmoke: $1 ok"
}

run sim "$tmp/libra-sim" -cca c-libra,cubic -dur 5s \
	-trace-out "$tmp/sim/events.jsonl" -http 127.0.0.1:0
check sim
run bench "$tmp/libra-bench" -run fig2a -quick \
	-trace-out "$tmp/bench/events.jsonl" -http 127.0.0.1:0
check bench
run lab "$tmp/libra-lab" search -cca cubic -budget 8 -dur 2s \
	-trace-out "$tmp/lab/events.jsonl"
check lab
run train "$tmp/libra-train" -episodes 4 -eplen 2s -out "$tmp/train/models"
check train
