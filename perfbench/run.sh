#!/usr/bin/env bash
# Builds cstream-serve and the benchmark from the checkout's sources, then
# runs the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-small --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact (Go build cache included) stays under the
# build directory, $CARGO_TARGET_DIR or .bench_build by default.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# With telemetry on or local, the go command forks a detached sidecar that
# outlives it; "off" keeps every go invocation free of background children.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/cstream-serve" ./cmd/cstream-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --server "$out/cstream-serve" --work "$out/work" "$@"
