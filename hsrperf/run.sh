#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, from the checkout's root. Build caches, generated
# inputs and results stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The module has no dependencies outside the checkout: never download.
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off
go -C hsrperf build -o "$build/hsrperf.bin" .
exec "$build/hsrperf.bin" "$@"
