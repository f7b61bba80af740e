#!/usr/bin/env python3
"""Serve parity between two builds of the daemon.

    python3 scripts/serve_parity.py OLD_SUU_CLI NEW_SUU_CLI

For each exact solver (simplex, revised) it spawns `serve --port 0
--solver S` from both binaries, sends each the same lower_bound, plan
and simulate frames over one connection — independent, chains and
forest instances (n = 12, 40, 96) with the LP policies and `auto` — and
compares the full response bytes.  Exits 1 on the first solver with a
difference.  Use it to show that a change to the LP or planning code
leaves what clients see untouched.
"""

import os
import re
import socket
import subprocess
import sys
import tempfile
import time

SHAPES = {"independent": ["suu-i-sem", "suu-i-obl", "auto"],
          "chains": ["suu-c", "auto"],
          "forest": ["suu-t", "auto"]}
SIZES = [(12, 3), (40, 6), (96, 8)]


def start(cli, solver, logdir):
    log = open(os.path.join(logdir, "%d.log" % len(os.listdir(logdir))), "w+")
    proc = subprocess.Popen([cli, "serve", "--port", "0", "--solver", solver],
                            stdout=log, stderr=subprocess.STDOUT)
    for _ in range(400):
        time.sleep(0.05)
        log.seek(0)
        m = re.search(r"listening on [^:]+:(\d+)", log.read())
        if m:
            return proc, int(m.group(1))
    proc.kill()
    sys.exit("serve_parity: %s did not start" % cli)


def instances(cli, port, tmp):
    """(shape, instance block) for every shape, size and seed."""
    out = []
    for shape in SHAPES:
        for n, m in SIZES:
            for seed in (1, 2, 3):
                path = os.path.join(tmp, "%s-%d-%d" % (shape, n, seed))
                subprocess.run([cli, "client", "describe", "--port", str(port),
                                "--shape", shape, "-n", str(n), "-m", str(m),
                                "--seed", str(seed), "--save", path],
                               check=True, stdout=subprocess.DEVNULL)
                with open(path) as f:
                    out.append((shape, f.read()))
    return out


def frames(insts):
    fs = []
    for k, (shape, inst) in enumerate(insts):
        fs.append("suu-request v1\nid lb%d\ntype lower_bound\ninstance\n%sdone\n"
                  % (k, inst))
        for pol in SHAPES[shape]:
            for seed in (0, 5):
                fs.append("suu-request v1\nid p%d-%s-%d\ntype plan\npolicy %s\n"
                          "seed %d\ninstance\n%sdone\n"
                          % (k, pol, seed, pol, seed, inst))
                fs.append("suu-request v1\nid s%d-%s-%d\ntype simulate\n"
                          "policy %s\nreps 8\nseed %d\ninstance\n%sdone\n"
                          % (k, pol, seed, pol, seed, inst))
    return fs


def exchange(port, fs):
    with socket.create_connection(("127.0.0.1", port)) as s:
        f = s.makefile("rwb")
        replies = []
        for fr in fs:
            f.write(fr.encode())
            f.flush()
            lines = []
            while not lines or lines[-1] != b"done\n":
                line = f.readline()
                if not line:
                    sys.exit("serve_parity: connection closed")
                lines.append(line)
            replies.append(b"".join(lines))
        return replies


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = sys.argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        for solver in ("simplex", "revised"):
            daemons = [start(cli, solver, tmp) for cli in (old, new)]
            try:
                fs = frames(instances(new, daemons[1][1], tmp))
                a, b = (exchange(port, fs) for _, port in daemons)
                differ = [fs[i].split("\n")[1] for i in range(len(fs))
                          if a[i] != b[i]]
                errors = sum(b"status error" in r for r in b)
                print("solver %s: %d requests, %d differ, %d error replies"
                      % (solver, len(fs), len(differ), errors))
                if differ:
                    print("first differing requests: " + " ".join(differ[:5]))
                    sys.exit(1)
            finally:
                for proc, _ in daemons:
                    proc.terminate()
                    proc.wait()


if __name__ == "__main__":
    main()
