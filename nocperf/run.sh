#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash nocperf/run.sh --workload fig1-soc --seed 1 --trace 0
#
# --seconds defaults to run_seconds in BENCHMARK.json.
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ (the Go build cache included); the
# last line of output is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# The go command also writes telemetry under the user's config directory
# and may use GOPATH; point both into the checkout as well.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/nocperf" && go build -trimpath -o "$out/nocperf" .)
exec "$out/nocperf" -spec "$root/BENCHMARK.json" -out "$out" "$@"
