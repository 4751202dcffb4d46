#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload cold-spp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary, trace files) stays under
# .bench_build/ in the current directory. The build needs the repository's
# own sources (../go.mod is the replaced "repro" module); without them it
# fails and no result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off CGO_ENABLED=0

# HOME points into the build directory too, so that nothing the go
# command keeps per user (configuration, telemetry) is written elsewhere.
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
