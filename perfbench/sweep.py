#!/usr/bin/env python3
"""Runs the benchmark over several seeds and appends each result to a JSONL file.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] [--seeds 1-10]
                               [--holdout] [--trace 0|1]

Every run lasts BENCHMARK.json's run_seconds. Each line of the output is
{"workload", "seed", "seconds", "trace", "result"}, where "result" is the
JSON line the run printed (or null when the run failed).
Compare two such files, or summarise one, with perfbench/compare.py.

Seeds 1-10 are the tuning seeds. --holdout uses seeds 1001-1010 instead:
they were never run while the benchmark was tuned, so a claim made on
the tuning seeds can be checked on them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TUNING_SEEDS = range(1, 11)
HOLDOUT_SEEDS = range(1001, 1011)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seed_range)
    ap.add_argument("--holdout", action="store_true")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    seeds = args.seeds or (HOLDOUT_SEEDS if args.holdout else TUNING_SEEDS)
    seconds = bench["run_seconds"]
    for workload in args.workloads.split(","):
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            ok = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {ok}", file=sys.stderr)
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                    "trace": int(args.trace), "result": result}) + "\n")


if __name__ == "__main__":
    main()
