#!/usr/bin/env bash
# Builds the kvperf benchmark from the checkout it is run in and runs it
# with the given arguments, e.g.
#
#   bash kvperf/run.sh --workload serve-uniform --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds, caches and
# writes stays under the build directory (CARGO_TARGET_DIR if set, else
# .bench_build), which the root .gitignore lists.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/kvperf" && go build -o "$build/kvperf" .)
exec "$build/kvperf" --out "$build/kvperf-run" "$@"
