#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing all
# arguments through. Run from the repository root, for example:
#
#   bash ssbbench/run.sh --workload adhoc-resident --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch files stay under
# .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd ssbbench && go build -o "$out/ssbbench" .) >&2
exec "$out/ssbbench" "$@"
