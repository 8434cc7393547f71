#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments, from the checkout root. Build products and the
# Go build cache stay in .bench_build/ inside the checkout.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
