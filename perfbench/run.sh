#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it.
#
#   sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product and scratch file
# stays under .bench_build/ there; the module needs nothing from the network.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
