#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. A run may write only inside its checkout, so the binary, the Go
# build cache, the go command's temporary files and its telemetry counters
# (XDG_CONFIG_HOME) all go under .bench_build/ at the checkout's root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
