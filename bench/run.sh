#!/usr/bin/env bash
# The driver's entry point: build the benchmark from source inside the
# checkout, then hand over. Everything the go command writes (build cache,
# module path, temporary files, telemetry) is kept under .bench_build so that
# nothing outside the checkout is touched. bench itself builds gmqld and gmql
# the same way.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod here: run from the root of a full checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
