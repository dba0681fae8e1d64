#!/usr/bin/env bash
# Builds the end-to-end benchmark from the surrounding source tree and
# runs it; every flag is passed through to the benchmark binary.
#
#   bash e2ebench/run.sh --workload anti-sharded --seed 1 --seconds 30 --trace 0
#
# Build cache, binary, scratch files and span dumps all stay under
# .bench_build at the root of the tree.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# The go command keeps its cache, temporary files and telemetry counters
# (under the user config directory) inside the tree too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -out "$out" "$@"
