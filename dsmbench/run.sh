#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
# Usage, from the repository root:
#
#	bash dsmbench/run.sh --workload inval-k16 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under the
# build directory inside the checkout: $CARGO_TARGET_DIR when set, else
# .bench_build. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
export PPROF_TMPDIR=$build/pprof
export DSMBENCH_TMP=$build/tmp

go -C "$root/dsmbench" build -o "$build/dsmbench" . >&2
exec "$build/dsmbench" "$@"
