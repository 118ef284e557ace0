#!/usr/bin/env bash
# Builds the STELLAR benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tune-loop --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every file the build writes (the Go
# build cache, the binary, telemetry) stays under .bench_build in the
# checkout, and nothing is fetched: the module is stdlib-only.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
