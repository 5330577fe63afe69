#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload measure-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache,
# binary, job store, traces) stays under .bench_build/ in the current
# directory. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$PWD
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
