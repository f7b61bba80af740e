#!/bin/sh
# Shard-bench smoke: routed vs direct throughput (median of 5 passes)
# plus the byte-identity sweep.  The bench checks byte identity and the
# proxy-overhead floor; the gate compares throughput medians against
# the baseline.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" shard
"$GATE" regression BENCH_shard.json bench/baseline.json
