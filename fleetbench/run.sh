#!/usr/bin/env bash
# Builds the fleet benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments. Run it from the checkout's
# root:
#
#   bash fleetbench/run.sh --workload warm-cycle --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the span files stay under
# .bench_build/ in the checkout. Outside a full checkout (no ../go.mod
# for the replace directive in fleetbench/go.mod) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$bench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
