#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload train-lstm --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare <results-A> <results-B>
#
# Everything the build writes (compiler cache, binary) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off CGO_ENABLED=0

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
