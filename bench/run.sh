#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload rand-rr4 --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (compiler cache, temporary files, the Go
# tool's config and telemetry counters, the binary) stays in .bench_build/
# under the current directory, and the build never reaches the network.
# Without the parent module (../go.mod) the build fails and the script
# exits non-zero before printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/deltabench" .
exec "$out/deltabench" "$@"
