#!/usr/bin/env python3
"""Builds and runs the ucp benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: solve-hard, minimize-pla, serve, serve-journaled (see
perfbench/README.md). Builds the repository's `ucp` binary and the
benchmark package with cargo (into $CARGO_TARGET_DIR, default
perfbench/target), then runs the benchmark. The last line of standard
output is the run's JSON result; build output goes to standard error.
Exits non-zero, printing no result, when the build or the run fails, or
when the result does not hold exactly the metrics BENCHMARK.json lists
for the run (end-to-end with --trace 0, per-layer with --trace 1), each
in its unit.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Headroom over --seconds for set-up, draining and the traced run's probes.
RUN_SLACK_S = 120


def build(target):
    for what, cmd in [
        ("ucp", ["cargo", "build", "--release", "--offline", "--bin", "ucp"]),
        ("perfbench", ["cargo", "build", "--release", "--offline",
                       "--manifest-path", os.path.join(HERE, "Cargo.toml")]),
    ]:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              env=dict(os.environ, CARGO_TARGET_DIR=target))
        if done.returncode != 0:
            sys.exit(f"error: building {what} failed (exit {done.returncode})")


def main():
    argv = sys.argv[1:]
    seconds = float(argv[argv.index("--seconds") + 1]) if "--seconds" in argv else 0.0
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("error: run from a checkout of the repository (no Cargo.toml next to perfbench/)")
    target = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")))
    build(target)
    cmd = [os.path.join(target, "release", "ucp-perfbench"), *argv,
           "--ucp", os.path.join(target, "release", "ucp"),
           "--scratch", os.path.join(target, "perfbench-scratch")]
    # Its own process group, so a timeout also takes down the `ucp serve`
    # child the benchmark starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        kill_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        sys.exit("error: the benchmark overran its time limit")
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = out.rstrip("\n").split("\n")
    problem = check_result(lines[-1], "--trace" in argv and argv[argv.index("--trace") + 1] == "1")
    if problem:
        sys.stderr.write(out)
        sys.exit(f"error: {problem}")
    sys.stdout.write(out)


def kill_group(proc):
    """Kills the benchmark and every process it started, and reaps it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def check_result(line, traced):
    """What is wrong with the result line, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    try:
        result = json.loads(line)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        return f"the last line is not a result object ({e})"
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"result metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, wrong unit {units}"
    return None


if __name__ == "__main__":
    main()
