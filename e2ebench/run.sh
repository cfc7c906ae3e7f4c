#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it,
# passing every argument through:
#
#   bash e2ebench/run.sh --workload kernels_feedback --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout; no module is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -dir "$out" "$@"
