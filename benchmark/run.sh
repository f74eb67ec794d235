#!/usr/bin/env bash
# Builds the benchmark (a module of its own, see go.mod) and runs it from
# the repository root. Everything the Go toolchain writes stays under
# .bench_build/ in the checkout: build cache, temp files, telemetry.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C benchmark -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
