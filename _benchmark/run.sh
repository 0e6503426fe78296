#!/usr/bin/env bash
# Builds the StarCDN benchmark from the sources of the checkout it sits in,
# then runs it with the given arguments, e.g. from the repository root:
#
#   bash _benchmark/run.sh --workload sim-video-sparse --seed 42 --seconds 20 --trace 0
#
# The binary, the Go build cache and the toolchain's scratch files all go
# under $CARGO_TARGET_DIR (default .bench_build in the current directory), so
# nothing is written outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/starcdn-benchmark" .)
exec "$out/starcdn-benchmark" "$@"
