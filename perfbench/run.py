#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload.

    python3 perfbench/run.py --workload sweep-lp|sweep-online|serve-open|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is built with dune
into the directory named by CARGO_TARGET_DIR (default .bench_build).
Untraced runs (--trace 0) report the end-to-end metrics, traced runs
(--trace 1) the per-layer metrics; see perfbench/WORKLOADS.md.  The
last line of standard output is the result record:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by the workload's tables and a provenance line.  With
--workload all the three workloads run in turn, each printing its own
provenance line and record.  BENCHMARK.json declares the two sweeps;
serve-open runs the same way but is not declared (see WORKLOADS.md).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-lp", "sweep-online", "serve-open")
SOURCES = ("dune-project", "lib", "bin", "perfbench")
DEADLINE_S = 175.0


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "dune")


def build():
    """Build the suu executable and perfbench.exe; return their paths.

    A no-op rebuild takes seconds; a build that makes no progress for
    the timeout is killed and retried once."""
    for rel in SOURCES:
        if not os.path.exists(os.path.join(ROOT, rel)):
            die("no %s here: run from the root of a source checkout" % rel)
    out = os.path.join(build_dir(), "default")
    exe = os.path.join(out, "perfbench", "perfbench.exe")
    suu = os.path.join(out, "bin", "suu_cli.exe")
    env = dict(os.environ)
    os.makedirs(os.path.dirname(build_dir()), exist_ok=True)
    env["DUNE_BUILD_DIR"] = build_dir()
    env["DUNE_CACHE"] = "disabled"
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "./perfbench/perfbench.exe", "./bin/suu_cli.exe"]
    timeout = 60 if os.path.exists(exe) and os.path.exists(suu) else 400
    for attempt in (1, 2):
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("perfbench: build attempt %d timed out" % attempt,
                  file=sys.stderr)
            continue
        if code != 0:
            die("build failed with exit code %d" % code)
        return exe, suu
    die("build did not finish")


def run_program(exe, suu, workload, seed, seconds, trace, tiny=False,
               timeout=DEADLINE_S):
    """Run perfbench.exe; echo its output and return its record (a dict)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--suu", suu]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        # perfbench.exe and the daemon it spawned share the session
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s did not finish within %.0f s" % (workload, timeout))
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        die("%s exited with code %d" % (workload, proc.returncode))
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        die("%s printed no result record" % workload)


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        # only this checkout's own repository, not one enclosing it
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for rel in SOURCES:
        top = os.path.join(ROOT, rel)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()


def report(args, workload, record):
    """Print the provenance line, then the result record."""
    info = record.get("info", {})
    provenance = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "SUU_JOBS": os.environ.get("SUU_JOBS", "unset"),
        "sim_jobs": info.get("sim_jobs"),
        "ocaml": ocaml_version(),
        "commit": source_id(),
        "host.calib_ns_per_iter": [info.get("calib_ns_per_iter_start"),
                                   info.get("calib_ns_per_iter_end")],
        "fail_ratio": info.get("fail_ratio"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (not a measurement)")
    args = ap.parse_args()
    start = time.monotonic()
    exe, suu = build()
    if args.workload == "all":
        for w in WORKLOADS:
            report(args, w, run_program(exe, suu, w, args.seed, args.seconds,
                                       args.trace, tiny=args.tiny))
    else:
        report(args, args.workload,
               run_program(exe, suu, args.workload, args.seed, args.seconds,
                          args.trace, tiny=args.tiny,
                          timeout=DEADLINE_S - (time.monotonic() - start)))


if __name__ == "__main__":
    main()
