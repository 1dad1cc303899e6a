#!/bin/sh
# Builds the simulator benchmark from the checkout's sources and runs
# it with the given arguments, e.g.
#
#	bash simbench/run.sh --workload fileserver --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache included, stays under .bench_build/ in that root, and no module
# is fetched: the benchmark depends on the repository's own packages
# only. Build output goes to stderr so that stdout ends with the
# benchmark's JSON result line.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/simbench" && go build -o "$build/simbench" .) >&2
exec "$build/simbench" "$@"
