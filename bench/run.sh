#!/usr/bin/env bash
# Builds the benchmark and mobilesimd from this checkout's source, then runs
# the benchmark with the given flags, for example:
#
#   bash bench/run.sh -workload flood-large -seed 1 -seconds 15 -trace 0
#
# Everything it writes (the Go build cache, binaries, results, span files
# and the server's caches) stays under .bench_build at the checkout's root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# Keep the go command's config and telemetry files inside the checkout too,
# and never reach for the network: the module has no dependencies.
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/bench" -o "$build/bench" .
go build -C "$root" -o "$build/mobilesimd" ./cmd/mobilesimd
exec "$build/bench" -mobilesimd "$build/mobilesimd" -work "$build" "$@"
