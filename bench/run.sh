#!/usr/bin/env bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: the binary, the Go build cache and anything else
# the toolchain keeps go under .bench_build/. BENCHMARK.json's command
# is `bash bench/run.sh`; the arguments are the benchmark's own flags.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program there is nothing to build: say so and leave before
# the toolchain is started at all.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no go.mod or internal/ in $PWD: the benchmark builds the simulator from source and cannot run without it" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The go command starts a telemetry child that outlives it (once a day per
# config dir, and this config dir is new in every checkout). The mode file
# is the only switch: GOTELEMETRY in the environment is not read.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
