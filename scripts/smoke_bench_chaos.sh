#!/bin/sh
# Chaos-bench smoke: fault-injected server vs retrying clients, then a
# shard killed mid-load behind the router.  The bench checks 100%
# completion in both, with faults actually injected and the dead shard
# marked down; the gate compares its throughput against the baseline.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" chaos
"$GATE" regression BENCH_chaos.json bench/baseline.json
