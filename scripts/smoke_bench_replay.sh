#!/bin/sh
# Replay-bench smoke: the bench checks that store-memoized sweeps are
# byte-identical to direct computation, cold and after a simulated
# kill -9; the gate compares the cold sweep time against the baseline.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" replay
"$GATE" regression BENCH_replay.json bench/baseline.json
