#!/usr/bin/env python3
"""Simulator-speed benchmark of the CoServe reproduction.

Builds simbench (the simulator library plus simbench.cc, Release, into
.simbench_build/ at the checkout root), runs one workload, checks the
simulated outputs against the values pinned in pins.json, and prints
the result as one JSON object on the last stdout line:

    python3 simbench/run.py --workload board_a_backlog --seed 42 \\
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics BENCHMARK.json lists; --trace 1
reports the per-layer metrics and writes a span file into
.simbench_out/. Exits non-zero when the build fails or any correctness
check fails. See simbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".simbench_build")
OUT_DIR = os.path.join(ROOT, ".simbench_out")
BINARY = os.path.join(BUILD_DIR, "simbench")
# The run itself must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build; build output goes to stderr."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_pins(workload, pinned):
    """Compare the default-seed outputs with pins.json; list mismatches."""
    pins = load_json(os.path.join(HERE, "pins.json")).get(workload)
    if pins is None:
        return [f"no pinned outputs for {workload} in pins.json"]
    return [f"{key}: got {pinned.get(key)!r}, pinned {want!r}"
            for key, want in pins.items() if pinned.get(key) != want]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace length factor (pins apply at 1)")
    args = parser.parse_args()
    started = time.monotonic()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--scale", repr(args.scale)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    timeout = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 2
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"simbench printed nothing (exit {proc.returncode})")
        return 2
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"simbench ended without a result (exit {proc.returncode})")
        return 2

    attempted, failed = raw["attempted"], raw["failed"]
    if args.scale == 1.0:
        mismatches = check_pins(args.workload,
                                dict(raw["pinned"], seed=raw["default_seed"]))
        attempted += 1
        if mismatches:
            failed += 1
            for m in mismatches:
                print(f"PIN MISMATCH ({args.workload}, seed "
                      f"{raw['default_seed']}): {m}")
        else:
            print("pins: default-seed outputs match pins.json")
    correct = failed == 0 and proc.returncode == 0

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"simbench did not report {m['name']} in {m['unit']}")
            return 2
        metrics[m["name"]] = got
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
