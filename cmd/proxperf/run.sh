#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build proxperf from the
# checkout's source and run it with the driver's arguments. The binary
# and the Go build cache live in .bench_build inside the checkout, so a
# run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/proxperf" ./cmd/proxperf
exec "$build/proxperf" "$@"
