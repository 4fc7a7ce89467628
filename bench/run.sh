#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the repository
# root; every flag is passed through, e.g.
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 22 --trace 0
#
# The binary, the Go build cache and traced runs' Chrome traces stay
# under $CARGO_TARGET_DIR (default .bench_build), so nothing outside the
# checkout is written.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "bench/run.sh: run from the repository root (no go.mod or internal/ in $root)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$out/nobbench" .
exec "$out/nobbench" -trace-dir "$out/traces" "$@"
