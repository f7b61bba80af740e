#!/bin/sh
# Table-1 harness smoke at tiny size: ratio-vs-lower-bound and
# steps/sec for the online policies (lzf, backfill) next to the LP
# policies and baselines, over synthetic shapes and the checked-in SWF
# trace.  The bench checks the single-machine 1/0.8531 bound and the
# LZF-vs-SEM cold-path speedup floor; the gate compares LZF steps/sec
# against the baseline.
. "$(dirname "$0")/smoke_lib.sh"

SUU_PERF_SCALE=tiny "$BENCH" table1
"$GATE" regression BENCH_table1.json bench/baseline.json
