#!/bin/sh
# Online-policy smoke: the LP-free policies (lzf, backfill, greedy,
# serial, round-robin) end to end over a real socket.  Serves simulate
# requests for each on instances converted from the checked-in SWF
# trace and on synthetic instances, and replays each request at the
# same seed — the responses must be byte-identical (0 mismatches): the
# policies promise deterministic tie-breaking, and backfill's
# per-execution predictor state is seeded from (instance digest,
# policy, seed) only.
. "$(dirname "$0")/smoke_lib.sh"

TRACE=bench/workloads/sample20.swf

"$CLI" serve --port 0 > "$SCRATCH/serve.log" 2>&1 &
SERVE_PID=$!
track "$SERVE_PID"
PORT=$(scripts/wait_ready.sh "$SCRATCH/serve.log" "$CLI" client stats)

# The server must know the whole registry, including lib/sched.
"$CLI" client stats --port "$PORT" --full > "$SCRATCH/stats0.out"

POLICIES="lzf backfill greedy serial round-robin"

# --- SWF-derived instances: convert the trace, serve each policy
#     over a handful of jobs, replay each and diff ---
"$CLI" workload convert "$TRACE" --out "$SCRATCH/conv" --seed 7
MISMATCH=0
for inst in job0001 job0007 job0013 job0019; do
  for pol in $POLICIES; do
    "$CLI" client simulate --port "$PORT" --load "$SCRATCH/conv/$inst.suu" \
      --policy "$pol" --reps 6 --seed 42 > "$SCRATCH/$inst-$pol-a.out"
    "$CLI" client simulate --port "$PORT" --load "$SCRATCH/conv/$inst.suu" \
      --policy "$pol" --reps 6 --seed 42 > "$SCRATCH/$inst-$pol-b.out"
    grep -q '^mean ' "$SCRATCH/$inst-$pol-a.out"
    if ! cmp -s "$SCRATCH/$inst-$pol-a.out" "$SCRATCH/$inst-$pol-b.out"; then
      echo "replay mismatch: $inst policy=$pol" >&2
      MISMATCH=$((MISMATCH + 1))
    fi
  done
done

# --- synthetic instances exercise the multi-machine packing paths the
#     one-job SWF rows cannot; n > 4m makes greedy scan past its
#     per-machine top-K ranking ---
for nm in 12:4 300:8; do
  n=${nm%:*} m=${nm#*:}
  for pol in $POLICIES; do
    "$CLI" client simulate --port "$PORT" -n "$n" -m "$m" --reps 6 --seed 9 \
      --policy "$pol" > "$SCRATCH/syn-$n-$pol-a.out"
    "$CLI" client simulate --port "$PORT" -n "$n" -m "$m" --reps 6 --seed 9 \
      --policy "$pol" > "$SCRATCH/syn-$n-$pol-b.out"
    grep -q '^mean ' "$SCRATCH/syn-$n-$pol-a.out"
    if ! cmp -s "$SCRATCH/syn-$n-$pol-a.out" "$SCRATCH/syn-$n-$pol-b.out"; then
      echo "replay mismatch: synthetic n=$n m=$m policy=$pol" >&2
      MISMATCH=$((MISMATCH + 1))
    fi
  done
done

[ "$MISMATCH" -eq 0 ]

# --- LP-free policies must bypass the plan cache, and the bypasses
#     must be visible in server stats ---
"$CLI" client stats --port "$PORT" | tee "$SCRATCH/stats.out"
BYPASS=$(awk '/^plan_cache_bypass /{print $2}' "$SCRATCH/stats.out")
[ -n "$BYPASS" ] && [ "$BYPASS" -gt 0 ]

# --- an unknown policy is a clean protocol error naming the registry,
#     not a hang or a crash ---
if "$CLI" client simulate --port "$PORT" -n 4 -m 2 --policy no-such-policy \
    > "$SCRATCH/unknown.out" 2>&1; then
  echo "unknown policy unexpectedly accepted" >&2
  exit 1
fi
grep -q 'unknown policy' "$SCRATCH/unknown.out"

kill -INT "$SERVE_PID"
wait "$SERVE_PID"

echo "policies smoke ok"
