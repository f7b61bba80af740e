#!/bin/sh
# Workload smoke: the checked-in 20-job sample SWF trace converts
# byte-stably to SUU instances, inspects cleanly, and replays open-loop
# through the serve bench end to end (arrivals at trace-derived
# timestamps; the bench checks 100% completion and byte-identical
# responses across two runs at the same seed).
. "$(dirname "$0")/smoke_lib.sh"

TRACE=bench/workloads/sample20.swf

# --- inspect: header directives and summary statistics parse out ---
"$CLI" workload inspect "$TRACE" > "$SCRATCH/inspect.txt"
grep -q '^jobs 20$' "$SCRATCH/inspect.txt"
grep -q '^users 5$' "$SCRATCH/inspect.txt"
grep -q '^; MaxProcs: 16$' "$SCRATCH/inspect.txt"

# --- convert twice: the trace -> instance mapping is deterministic,
#     so the two output trees must be byte-identical ---
"$CLI" workload convert "$TRACE" --out "$SCRATCH/conv1" --seed 7
"$CLI" workload convert "$TRACE" --out "$SCRATCH/conv2" --seed 7
[ "$(ls "$SCRATCH/conv1" | wc -l)" -eq 20 ]
diff -r "$SCRATCH/conv1" "$SCRATCH/conv2"

# a converted instance loads back through the CLI
"$CLI" describe --load "$SCRATCH/conv1/job0001.suu" > /dev/null

# --- open-loop replay through the serve bench (port 0 server inside
#     the bench): the bench itself checks that every arrival completes
#     with deterministic responses; these greps check the trace mapping.
#     Its connection-scale pass holds 500 sockets on each side, so raise
#     the fd ceiling as smoke_bench_serve.sh does ---
ulimit -n 4096 2>/dev/null || true
SUU_PERF_SCALE=tiny "$BENCH" serve --workload "swf:$TRACE"
grep -q '"workload": {"spec": "swf:sample20.swf"' BENCH_serve.json
grep -q '"arrivals": 20' BENCH_serve.json

# --- a synthetic arrival process drives the same path ---
SUU_PERF_SCALE=tiny "$BENCH" serve --workload poisson:40
grep -q '"workload": {"spec": "poisson:40"' BENCH_serve.json

echo "workload smoke ok"
