#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare BASE.jsonl HEAD.jsonl
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/perfbench in the checkout. The benchmark module's
# go.mod points at the repository root with a replace directive, so a
# directory holding only the benchmark fails to build and exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
