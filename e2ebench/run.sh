#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from a repository checkout:
#
#   bash e2ebench/run.sh --workload bulk-bdp --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build/ in the checkout. The build needs the repository's own
# module next to this directory; without it the script fails.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/bin/e2ebench" .
exec "$build/bin/e2ebench" -root "$root" "$@"
