#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload pq-dense --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ in the current directory. The build needs the repository
# module one directory above this script; without it the build fails and
# the script exits non-zero before printing anything on stdout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOENV=off
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
