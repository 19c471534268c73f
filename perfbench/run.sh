#!/bin/sh
# Builds and runs the benchmark; run it from the repository root:
#
#   sh perfbench/run.sh -workload fig3 -seed 1 -seconds 20 -trace 0
#
# The Go build cache and temporary files stay inside the checkout, under
# .bench_build, so the first run compiles the standard library once.
set -eu
if [ ! -f go.mod ] || [ ! -f perfbench/main.go ]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
root=$(pwd)
GOCACHE="$root/.bench_build/gocache"
GOTMPDIR="$root/.bench_build/tmp"
GOTOOLCHAIN=local
export GOCACHE GOTMPDIR GOTOOLCHAIN
mkdir -p "$GOTMPDIR"
exec go run ./perfbench "$@"
