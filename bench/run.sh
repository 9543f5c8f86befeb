#!/bin/sh
# BENCHMARK.json's command: build the harness from source inside the
# checkout, then run it with the driver's arguments. Everything the
# build leaves behind goes under .bench_build/ at the checkout's root.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/mpq-bench" .
exec "$build/mpq-bench" "$@"
