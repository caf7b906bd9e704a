#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's sources and runs it with
# the given arguments, from the checkout root. Every build artefact, cache
# and temporary file stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload replay-rl --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
