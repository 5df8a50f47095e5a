#!/usr/bin/env python3
"""Builds fhp and the benchmark harness from source, then runs one workload.

    python3 perfbench/run.py --workload flat|vcycle|serve-eco \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside an fhp checkout; every path is taken relative to
the checkout root (the parent of this directory). Builds go to
$CARGO_TARGET_DIR (default .bench_build), generated inputs and traces to
.bench_work. The last stdout line is the result object; the exit code is
non-zero when the build, an output check or the result format fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("flat", "vcycle", "serve-eco")
DEFAULT_SEED = 1
# Wall budget of one harness invocation (the builds before it excluded).
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    """Builds `fhp`, `fhp-trace-check` and the harness; returns the
    harness executable."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-p", "fhp-cli", "-p", "fhp-obs"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("building fhp failed")
    # Build chatter goes to stderr: stdout carries only the result.
    done = subprocess.run(
        ["cargo", "bench", "--offline", "--no-run", "--message-format=json-render-diagnostics",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail("building the harness failed")
    for line in done.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg["target"]["name"] == "perfbench":
            return msg["executable"]
    fail("cargo reported no harness executable")


def check_result(line, spec, trace):
    """The result object, after checking it names exactly the metrics
    BENCHMARK.json declares for this mode, with their units."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} has no finite value")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    for needed in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run inside an fhp checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    harness_exe = build(env)
    work = os.path.join(ROOT, ".bench_work")
    release = os.path.join(target, "release")
    cmd = [
        harness_exe,
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(seconds),
        "--trace", str(a.trace), "--fhp", os.path.join(release, "fhp"),
        "--trace-check", os.path.join(release, "fhp-trace-check"), "--work", work,
    ]
    # A session of its own, so a timeout stops the harness and every
    # fhp process it started.
    harness = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = harness.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.communicate()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"harness printed no result (exit {harness.returncode})")
    try:
        result = check_result(lines[-1], spec, a.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"bad result line: {e}")
    print(lines[-1])
    if harness.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
