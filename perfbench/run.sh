#!/usr/bin/env bash
# Builds the benchmark and the ceer binary from the source tree in the
# current directory (the repository root), then runs one workload:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traces stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/ceer" ceer/cmd/ceer
exec "$out/perfbench" "$@"
