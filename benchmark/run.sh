#!/usr/bin/env bash
# Builds the benchmark program from this checkout and runs it, passing
# every argument through (see benchmark/cmd/wbbench). Run from the root
# of a checkout:
#
#   bash benchmark/run.sh --workload serve-light --seed 1 --seconds 10 --trace 0
#
# Build caches, the built binaries and scratch files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/winograd-bench/testdata || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the root of a repository checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd benchmark && go build -o "$build/wbbench" ./cmd/wbbench)
exec "$build/wbbench" "$@"
