#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it with the arguments given
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the go tool writes — build cache, temporary files, its config and
# telemetry — is pointed into .bench_build in the checkout, so a run reads and
# writes nothing outside it. The first build compiles the standard library
# into that cache; later ones only re-check it.
#
# The go tool's telemetry is switched off in that private config directory:
# with the default mode ("local") the first go command of the day forks a
# detached "go ** telemetry **" sidecar, which can outlive a go command that
# ends at once (as it does in a directory without the program), and a
# benchmark run may leave no process behind.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark/run.sh: no go.mod and internal/ in $root: the program the benchmark measures is not here" >&2
	exit 3
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/cascade-benchmark" ./benchmark
exec "$build/cascade-benchmark" "$@"
