#!/usr/bin/env bash
# The benchmark's entry point, as BENCHMARK.json names it: builds ./bench
# from source inside the checkout (Go's build cache, temporaries and the
# binary all under .bench_build) and runs it with the arguments given.
#
#   bash bench/run.sh --workload serve_cold --seed 7 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# XDG_CONFIG_HOME: the go command keeps its telemetry counters and env file
# under the user's config directory; this keeps those in the checkout too.
# Telemetry is switched off there first: in its default "local" mode the go
# command, finding a fresh config directory, starts a detached telemetry
# sidecar (`go "** telemetry **"`) that outlives the build and this script.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
# Release freed heap lazily (MADV_FREE): the steady phases then re-use
# resident pages instead of faulting them back in through the hypervisor,
# which on the reference guest cost 10-15 % of an op and most of its jitter.
export GODEBUG=madvdontneed=0
exec "$build/bench" "$@"
