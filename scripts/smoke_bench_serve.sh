#!/bin/sh
# Serve-bench smoke: tiny-scale load test, the connection-scale pass
# (>= 500 concurrent pipelined connections, zero drops, byte-exact
# replies) and an open-loop SWF replay; the bench checks all three,
# then the gate compares its metrics against bench/baseline.json.  500
# client sockets + 500 accepted sockets live in one process, so raise
# the fd ceiling where the soft default (often 1024) is too tight.
. "$(dirname "$0")/smoke_lib.sh"

ulimit -n 4096 2>/dev/null || true

SUU_PERF_SCALE=tiny "$BENCH" serve \
  --workload "${WORKLOAD:-swf:bench/workloads/sample20.swf}"
"$GATE" regression BENCH_serve.json bench/baseline.json
