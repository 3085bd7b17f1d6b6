#!/usr/bin/env bash
# Write the fleet golden outputs of one build.
#
#   tools/fleet_goldens.sh BUILD_DIR OUT_DIR
#
# Runs the fleet benches at the configurations CI pins — the
# fleet_serving scaling sweep with the fault-tolerance layer off and
# on, the fleet_chaos schedule, and the autotune_tracking arc (the
# tuner's simplex and hysteresis constants) — and writes each run's
# CSV plus its stdout report into OUT_DIR. Every output is a pure
# function of the bench's configuration, so two builds that serve the
# fleet identically produce byte-identical directories:
#
#   tools/fleet_goldens.sh base/build base-goldens
#   tools/fleet_goldens.sh build head-goldens
#   diff -r base-goldens head-goldens
#
# BUILD_DIR needs the fleet_serving, fleet_chaos and autotune_tracking
# targets built.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 BUILD_DIR OUT_DIR" >&2
    exit 2
fi

build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

for bin in fleet_serving fleet_chaos autotune_tracking; do
    if [[ ! -x "$build/bench/$bin" ]]; then
        echo "$0: $build/bench/$bin is not built" >&2
        exit 1
    fi
done

# Relative CSV paths keep the "wrote N rows to PATH" lines identical
# across output directories.
cd "$out"
"$build/bench/fleet_serving" --clients 1,100,1000,10000 --frames 16 \
    --csv fleet_serving.csv > fleet_serving.txt
"$build/bench/fleet_serving" --clients 100,1000 --frames 16 --ft \
    --csv fleet_serving_ft.csv > fleet_serving_ft.txt
"$build/bench/fleet_chaos" --csv fleet_chaos.csv > fleet_chaos.txt
"$build/bench/autotune_tracking" --csv autotune_tracking.csv \
    > autotune_tracking.txt
