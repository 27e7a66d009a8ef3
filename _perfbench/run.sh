#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it:
#
#   bash _perfbench/run.sh --workload vet-cold --seed 1 --seconds 10 --trace 0
#
# Run from the root of the tree. Build outputs, the Go build cache, the Go
# tool's own config and telemetry files, and the run's temporary files all
# stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
		GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
	cd "$root/_perfbench" && go build -o "$out/perfbench" .
)
exec "$out/perfbench" -root "$root" "$@"
