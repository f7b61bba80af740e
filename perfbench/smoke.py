#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of run.py (the declared ones and serve-open) at tiny
size, untraced and traced, and checks that each run is correct and emits exactly the declared
end-to-end (untraced) or per-layer (traced) metrics, each with its
declared unit and direction.  Exits 1 on the first mismatch.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    exe, suu = run.build()
    problems = []
    for w in run.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            record = run.run_program(exe, suu, w, seed=1, seconds=1,
                                    trace=trace, tiny=True)
            got = record["metrics"]
            where = "%s --trace %d" % (w, trace)
            if not record["correct"] or record["failed"]:
                problems.append("%s: incorrect run (%d failed)"
                                % (where, record["failed"]))
            want = {m["name"]: m for m in declared}
            for name in sorted(set(got) - set(want)):
                problems.append("%s: undeclared metric %s" % (where, name))
            for name, m in want.items():
                g = got.get(name)
                if g is None:
                    problems.append("%s: missing %s" % (where, name))
                elif (g["unit"], g["better"]) != (m["unit"], m["better"]):
                    problems.append("%s: %s is %s/%s, declared %s/%s"
                                    % (where, name, g["unit"], g["better"],
                                       m["unit"], m["better"]))
            print("smoke %s: %d metrics" % (where, len(got)), flush=True)
    for p in problems:
        print("SMOKE FAILURE: " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
