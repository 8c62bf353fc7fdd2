"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/abtest.py PARENT_DIR CHANGE_DIR --workload W [--seed S] [--pairs 10]

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T` once
in each checkout, one after the other; the side that goes first alternates
from pair to pair, so a drift of the machine's speed falls on both sides
alike.  T is the `run_seconds` of CHANGE_DIR's BENCHMARK.json, and each
metric's better direction is read from the `end_to_end` list there.

For every end-to-end metric the tool prints each side's median and
quartiles over the pairs, how many pairs the change won (ties count for
neither side), whether a gain could be claimed: the change wins at least
nine pairs in ten and its median is better than the parent's by more than
the distance between the parent's quartiles; and whether the change's
median is worse than the parent's by more than the metric's `bound` in
BENCHMARK.json, a fraction of the parent's median.  A change worse beyond
a bound on any workload is to be rejected.  It reads only what
`bench/run.py` prints, and imports nothing from `bench/`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


def run_bench(root, workload, seed, seconds):
    """The metrics {name: value} and the failure count of one run in root."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise SystemExit("benchmark in %s exited with %d:\n%s" % (root, r.returncode, r.stderr))
    result = json.loads(r.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}, result["failed"]


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, higher_is_better, bound):
    """The comparison of one metric over pairs: parent[i] and change[i] were
    measured in pair i.  bound is the largest loss of the change's median,
    as a fraction of the parent's, that is not a regression."""
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    return {
        "parent": pq,
        "change": cq,
        "wins": wins,
        "pairs": len(parent),
        "claimable": wins * 10 >= 9 * len(parent) and gain > pq[2] - pq[0],
        "beyond_bound": -gain > bound * abs(pq[1]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    values = {side: {name: [] for name in better} for side in sides}
    failed = {side: 0 for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got, nfail = run_bench(sides[side], args.workload, args.seed, spec["run_seconds"])
            failed[side] += nfail
            for name in better:
                values[side][name].append(got[name])
        print("# pair %d (%s first): %s" % (i + 1, order[0], ", ".join(
            "%s %.4g -> %.4g" % (n, values["parent"][n][-1], values["change"][n][-1])
            for n in better)), flush=True)
    print("%s seed %d, %d pairs; failed operations: parent %d, change %d"
          % (args.workload, args.seed, args.pairs, failed["parent"], failed["change"]))
    print("%-12s %-32s %-32s %-6s %-10s %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "claimable",
        "worse beyond bound"))
    for name, higher in better.items():
        s = summarize(values["parent"][name], values["change"][name], higher, bounds[name])
        print("%-12s %-32s %-32s %-6s %-10s %s" % (
            name,
            "%.4g [%.4g, %.4g]" % (s["parent"][1], s["parent"][0], s["parent"][2]),
            "%.4g [%.4g, %.4g]" % (s["change"][1], s["change"][0], s["change"][2]),
            "%d/%d" % (s["wins"], s["pairs"]),
            "yes" if s["claimable"] else "no",
            "YES (bound %g)" % bounds[name] if s["beyond_bound"] else "no"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
