#!/usr/bin/env bash
# The benchmark's one command. Run it from anywhere in a checkout:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--workload all] [--seed N] [--seconds S] [--no-trace] [--smoke]
#   benchmark/run.sh --check-repeat K
#
# The first form is what BENCHMARK.json's `command` expands to: one
# workload in one process, end-to-end metrics with --trace 0, per-layer
# metrics with --trace 1, and one JSON result line last on standard
# output. The second runs every workload, each in its own process, first
# untraced and then (unless --no-trace) traced. The third is
# check_repeat.sh.
#
# It builds the benchmark package from source (offline, path dependencies
# on ../crates/*) into $CARGO_TARGET_DIR, by default .bench_build at the
# root of the checkout, and writes only there and under benchmark/out/.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

workload=all
trace=both
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --workload=*) workload="${1#*=}"; shift ;;
        --trace) trace="$2"; shift 2 ;;
        --trace=*) trace="${1#*=}"; shift ;;
        --no-trace) trace=0; shift ;;
        --check-repeat) workload=none; pass+=("$1" "$2"); shift 2 ;;
        *) pass+=("$1"); shift ;;
    esac
done

# Build output goes to standard error: standard output carries results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/rl_benchmark" ;;
    *) bin="./$CARGO_TARGET_DIR/release/rl_benchmark" ;;
esac

if [ "$workload" = none ]; then
    exec "$bin" --out benchmark/out "${pass[@]}"
fi
if [ "$workload" != all ]; then
    [ "$trace" = both ] && trace=0
    exec "$bin" --workload "$workload" --trace "$trace" --out benchmark/out ${pass[@]+"${pass[@]}"}
fi

status=0
for w in record_mix_mem record_mix_paged cloudkit_tenants_fit query_shapes_mem; do
    for t in 0 1; do
        if [ "$trace" = both ] || [ "$trace" = "$t" ]; then
            "$bin" --workload "$w" --trace "$t" --out benchmark/out ${pass[@]+"${pass[@]}"} || status=1
        fi
    done
done
exit "$status"
