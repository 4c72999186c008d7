#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it from the checkout root. The binary, the Go build cache and
# everything else the toolchain writes stay under .bench_build/ in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -C bench -buildvcs=false -o "$build/numabfs-bench" .
exec "$build/numabfs-bench" "$@"
