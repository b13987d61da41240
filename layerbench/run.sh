#!/usr/bin/env bash
# Builds the layer-ladder benchmark and the cmd/experiments simulator
# binary from the checkout in the current directory, then runs one
# workload:
#
#   bash layerbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Builds, the Go build cache and the
# traced run's span files all stay under .bench_build/. Outside a full
# checkout (no go.mod next to layerbench/) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C layerbench build -o "$out/layerbench" . >&2
go build -o "$out/experiments" ./cmd/experiments >&2
exec "$out/layerbench" -experiments "$out/experiments" "$@"
