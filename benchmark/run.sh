#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build (the first call in a checkout compiles; later calls find the
# build cache warm and only check it) and runs it with the arguments given.
# Run it from the root of the repository:
#
#   bash benchmark/run.sh --workload thread_mem --seed 1 --seconds 12 --trace 0
#
# Everything it writes — build cache, binary, scratch files, trace.json —
# stays under .bench_build in the current directory.
set -eu
if [ ! -f go.mod ] || [ ! -f BENCHMARK.json ]; then
	echo "benchmark/run.sh: run from the root of the repository (go.mod and BENCHMARK.json not found here)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -dir .bench_build "$@"
