#!/bin/sh
# Perf-harness smoke at tiny size so it cannot rot.  The bench exits
# non-zero if a declared check fails (bit-identical parallel sweeps,
# obs overhead < 5%, warm-LP speedup, solver parity); the gate then
# compares its metrics against bench/baseline.json.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" perf
"$GATE" regression BENCH_perf.json bench/baseline.json
