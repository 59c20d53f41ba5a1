#!/usr/bin/env bash
# Builds the slbench binary from this checkout's sources and runs it with
# the given arguments. Everything the build and the run write (Go build
# cache, binary, temp dirs) stays under .bench_build at the checkout root.
#
#   bash slbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/slbench" .)
exec "$out/slbench" "$@"
