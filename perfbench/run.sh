#!/usr/bin/env bash
# Builds mscgen, mscplace and the perfbench harness from the source tree
# this script sits in, then runs the harness with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload rgg2k-sandwich --seed 1 --seconds 20 --trace 0
#
# Everything it writes lands under .bench_build/ in the current directory:
# the Go build cache, the binaries, generated instances and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$out/bin" "$out/tmp"
(cd perfbench && go build -o "$out/bin/" msc/cmd/mscgen msc/cmd/mscplace msc/perfbench) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
