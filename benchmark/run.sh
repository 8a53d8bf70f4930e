#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash benchmark/run.sh -seed 1 -out result.json
#   bash benchmark/run.sh --workload bulk-detect --seed 3 --seconds 16 --trace 0
#
# Everything the build writes (Go build cache, binary, kernel packages) stays
# under the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "run.sh: run from the repository root (benchmark/go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$out/rumba-benchmark" .)
exec "$out/rumba-benchmark" -workdir "$out" "$@"
