#!/usr/bin/env bash
# Build perf_bench from this checkout's sources, then run it.
#
#   bash bench/perf/run.sh --workload analog_stream --seed 1 \
#       --seconds 20 --trace 0
#
# Run from the repository root. The build, the cached trained weights
# and every output file go to $CARGO_TARGET_DIR (default .bench_build).
# Build messages go to stderr, so perf_bench's JSON result stays the
# last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"

{
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target perf_bench -j "$(nproc)"
} 1>&2

sha=unknown
if [ -e "$here/../../.git" ]; then
    sha="$(git -C "$here/../.." rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/perf_bench" --weights "$build/redeye_mini_weights.bin" \
    --out "$build/results" --sha "$sha" "$@"
