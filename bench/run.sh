#!/usr/bin/env bash
# Builds ctabench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload trace-heavy --seed 1 --seconds 20 --trace 0
#
# Every build product (Go build cache, binary, temporary files) and every
# trace the benchmark writes stays under .bench_build/ in the current
# directory, so nothing outside the checkout is touched.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME moves the go command's settings and telemetry state
# into the checkout as well, and telemetry is switched off there.
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go telemetry off
go -C bench build -o "$out/ctabench" ./cmd/ctabench
exec "$out/ctabench" "$@"
