#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it from the repository
# root. Every build product, cache and output stays under .bench_build.
#
#   bash fleetbench/run.sh --workload fleet-hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/fleetbench" && go build -trimpath -o "$out/fleetbench" .)
cd "$root"
exec "$out/fleetbench" "$@"
