#!/usr/bin/env bash
# Builds hostbench from source inside the checkout and runs it with the
# given arguments, from the checkout's root:
#
#   bash hostbench/run.sh --workload web --seed 1 --seconds 6 --trace 0
#
# Every Go cache and the binary live under $CARGO_TARGET_DIR (default
# .bench_build), so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out=$CARGO_TARGET_DIR ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off

(cd "$here" && go build -buildvcs=false -o "$out/hostbench" .)
exec "$out/hostbench" --spans-dir "$out" "$@"
