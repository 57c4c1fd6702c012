#!/usr/bin/env bash
# Builds the benchmark program and cmd/anykd from the checkout it is started
# in, then runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload cyclic_topk --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= GOENV=off
[ -f "$out/config/go/telemetry/mode" ] || go telemetry off
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/anykd" ./cmd/anykd
exec "$out/perfbench" --anykd "$out/anykd" --out "$out" "$@"
