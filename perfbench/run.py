#!/usr/bin/env python3
"""Build and run the Chipmunk pipeline benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/bench/main.exe from
source with dune (build tree under .bench_build/, dune's shared cache off),
runs it, and prints its output; the last line is the result as one JSON
object. Exits non-zero, without a result, when the checkout cannot be
built, the run fails, or the result does not carry exactly the metrics
BENCHMARK.json names for the mode.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "bench", "main.ml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a checkout of the repository (missing %s)" % needed)
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/bench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    # The runtime-events ring file of a traced run goes in a fresh
    # directory inside the checkout, removed afterwards.
    events_dir = tempfile.mkdtemp(prefix="events-", dir=os.path.dirname(BUILD_DIR))
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events_dir)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")
    finally:
        shutil.rmtree(events_dir, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail("run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("last line is not a JSON result")
    want = expected_metrics(args.trace)
    got = set(result.get("metrics", {}))
    if got != want:
        sys.stderr.write(out)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    print(out, end="" if out.endswith("\n") else "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    build()
    run(args)


if __name__ == "__main__":
    main()
