#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload beacon-baseline --seed 1 --seconds 40 --trace 0

It builds perfbench/bench.exe with dune into .bench_build/ (dune cache
off, so nothing is written outside the checkout), runs it in a fresh
process and passes its standard output through: information lines, then
as the last line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones; a traced run also writes its spans and
a per-layer self-time summary under .bench_build/perfbench/.

Exit codes: 0 on a result (correct or not), 2 when the checkout lacks
the sources, 3 when the build fails, 4 when the run fails or times out.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
REQUIRED = ["dune-project", "lib", "perfbench/bench.ml", "perfbench/dune"]
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    return "unknown"


def source_sha256():
    """Hash of the sources the benchmark is built from."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".txt")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--expect", default="",
                    help="override the expected repetition digest (gate check)")
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail(2, "run from the root of a checkout; missing " + ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        fail(3, "dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail(3, f"build failed (exit {build.returncode})")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--references", "perfbench/digests.txt", "--out-dir", OUT_DIR,
           "--commit", git_commit(), "--source-sha256", source_sha256(),
           "--nproc", str(len(os.sched_getaffinity(0)))]
    if args.expect:
        cmd += ["--expect", args.expect]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        fail(4, f"bench.exe exited {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(4, "bench.exe printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(4, "malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
