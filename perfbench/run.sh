#!/bin/sh
# run.sh builds the benchmark from the source tree it sits in and runs it.
#
# Usage, from the repository root:
#
#	sh perfbench/run.sh --workload machine-stream --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory. The
# build fails, and the script exits non-zero without a result, when the
# simulator's sources are not beside perfbench/.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

# Build under a private name and rename, so a run that starts while
# another one executes the binary never finds it half written.
(cd "$here" && go build -o "$out/perfbench.$$" .) >&2
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" -state "$out/perfbench-state" "$@"
