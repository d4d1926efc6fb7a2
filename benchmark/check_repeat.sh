#!/usr/bin/env bash
# benchmark/check_repeat.sh [K]
#
# Runs the suite K times (default 3) as two interleaved sets A and B of
# the same binary and prints, per workload and end-to-end metric, the two
# medians, their relative gap and the bound from BENCHMARK.json. Exits
# non-zero when a gap is over its bound, when a workload's median
# bench.drift_share is over 10 %, or when any op failed. The report is
# markdown on standard output (progress goes to standard error):
#
#   benchmark/check_repeat.sh 5 > benchmark/REPEATABILITY.md
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --check-repeat "${1:-3}"
