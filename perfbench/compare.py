#!/usr/bin/env python3
"""Summarises one set of benchmark runs, or compares two.

    python3 perfbench/compare.py A.jsonl            # spread of each metric
    python3 perfbench/compare.py A.jsonl B.jsonl    # does B agree with A?

Inputs are JSONL files written by perfbench/sweep.py; every run in them
must have lasted the same --seconds, or the script refuses to compare
them. For every workload and metric the script prints the median and
quartiles of each set (Python's statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.

With two sets, an end-to-end metric gets a verdict against its bound in
BENCHMARK.json:
  agree       B's median is no worse than A's by more than the bound;
  WORSE       B's median is worse than A's by more than the bound;
  unresolved  either set's spread is wider than the bound, so the runs
              cannot tell (unless every run of B beats every run of A,
              which reads "better (every run)").
Per-layer metrics have no bound and only show the change of the median.
The exit status is 1 when any end-to-end verdict is WORSE or unresolved,
or any run failed or was incorrect.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = {}
    bad = 0
    seconds = set()
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            seconds.add(rec.get("seconds"))
            res = rec["result"]
            if not res or not res["correct"]:
                bad += 1
                continue
            for name, m in res["metrics"].items():
                runs.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return runs, bad, seconds


def stats(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = stats(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load(p) for p in sys.argv[1:]]
    lengths = set().union(*(s[2] for s in sets))
    if len(lengths) != 1 or None in lengths:
        sys.exit(f"error: runs of different or unrecorded lengths ({sorted(map(str, lengths))} s) "
                 "cannot be compared")
    failing = False
    for path, (_, bad, _) in zip(sys.argv[1:], sets):
        if bad:
            print(f"{path}: {bad} runs failed or were incorrect")
            failing = True
    a = sets[0][0]
    b = sets[1][0] if len(sets) == 2 else None
    for workload in a:
        print(f"\n== {workload}")
        for name, av in a[workload].items():
            m = meta.get(name, {})
            bound = m.get("bound")
            aq1, amed, aq3 = stats(av)
            row = f"  {name:<34} A {amed:12.6g} [{aq1:.6g}, {aq3:.6g}] spread {spread(av):6.1%}"
            if b is None:
                if bound is not None:
                    ok = spread(av) <= bound
                    row += f" bound {bound:.0%} {'ok' if ok else 'TOO WIDE'}"
                    failing |= not ok
                print(row)
                continue
            bv = b.get(workload, {}).get(name)
            if not bv:
                print(row + "  (missing in B)")
                failing |= bound is not None
                continue
            bq1, bmed, bq3 = stats(bv)
            lower = m.get("better", "lower") == "lower"
            worse_by = (bmed - amed) / abs(amed) if lower else (amed - bmed) / abs(amed)
            row += f" | B {bmed:12.6g} [{bq1:.6g}, {bq3:.6g}] spread {spread(bv):6.1%} | worse by {worse_by:+.1%}"
            if bound is not None:
                all_better = (max(bv) < min(av)) if lower else (min(bv) > max(av))
                if max(spread(av), spread(bv)) > bound:
                    verdict = "better (every run)" if all_better else "unresolved"
                elif worse_by > bound:
                    verdict = "WORSE"
                else:
                    verdict = "agree"
                failing |= verdict in ("WORSE", "unresolved")
                row += f" bound {bound:.0%}: {verdict}"
            print(row)
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
