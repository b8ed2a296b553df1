#!/bin/sh
# Builds esd and the benchmark from this checkout, then runs the benchmark.
#
#   bash esbench/run.sh --workload script-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the root of an es source checkout.  Everything it builds,
# caches or writes stays under .bench_build/ in that checkout.
set -eu

if [ ! -f go.mod ] || [ ! -d cmd/esd ] || [ ! -d internal/server ] || [ ! -f esbench/go.mod ]; then
	echo "esbench: run from the root of an es source checkout" >&2
	exit 2
fi

out=$(pwd)/.bench_build/esbench
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$out/esd" ./cmd/esd
(cd esbench && go build -o "$out/esbench" .)
exec "$out/esbench" -esd "$out/esd" -work .bench_build/esbench/tmp "$@"
