"""Time the steps of a dynamic program's run, first and steady.

    python3 tools/steps.py --chains 2,4,8 [--seed 1] [--instants 1000]

The program has k independent noisy xor chains, as in the sample_chains
benchmark: chain i has a noise bit n_i ~ Bernoulli(1/10) and
x_i = xor2(pre x_i, n_i), starting from x_i = F.  k // 2 chains, drawn
with the seed, carry `observe x_i`, and each observation record gives
them seeded random values; a chain reaches either value at every instant,
so every record is consistent.

For each chain count a fresh Python process parses the program three
times and calls `rblang.run_program` on each parse with the same records
and seed: a run of 2 instants in the cold process, whose seconds are the
first two instants' cost as one CLI call pays it; then, in the warm
process, a run of 2 instants and one of N + 2 instants.  The steady cost
is the difference of the last two runs over N, in microseconds per
instant.  It prints one JSON line: the chain count, the number of
observed chains, N, first_seconds, steady_us, and the process's peak
resident set size from getrusage.  The rbmx it runs is the one under this
checkout's src/.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from timing import positive_count, run_each, size_list  # noqa: E402

CHILD = """
import json, random, resource, sys, time
from rbmx.rblang import parse, run_program

k, seed, instants = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
rng = random.Random("steps:%d:%d" % (seed, k))
observed = sorted(rng.sample(range(k), k // 2))
lines = ["domain bool = { F, T }",
         "func xor2 : (bool, bool) -> bool { (F,F) -> F, (F,T) -> T, (T,F) -> T, (T,T) -> F }"]
lines += ["var x%d, n%d : bool" % (i, i) for i in range(k)]
for i in range(k):
    lines += ["|| init x%d = F" % i, "|| n%d ~ Bernoulli(1/10)" % i,
              "|| x%d = xor2(pre x%d, n%d)" % (i, i, i)]
    if i in observed:
        lines.append("|| observe x%d" % i)
text = "\\n".join(lines) + "\\n"
obs = [{"x%d" % i: rng.random() < 0.5 for i in observed} for _ in range(instants + 1)]

def timed(steps):
    p = parse(text)
    t0 = time.perf_counter()
    run = run_program(p, obs=obs, steps=steps, seed=seed)
    t1 = time.perf_counter()
    assert len(run.trace) == steps
    return t1 - t0

first = timed(2)
short = timed(2)
long = timed(instants + 2)
print(json.dumps({
    "chains": k, "observed": len(observed), "instants": instants,
    "first_seconds": round(first, 5),
    "steady_us": round((long - short) / instants * 1e6, 2),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)}))
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--chains", type=size_list("chain"), default=[2, 4, 8],
                    help="comma-separated chain counts (default 2,4,8)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the observations and runs")
    ap.add_argument("--instants", type=positive_count("an instant"), default=1000,
                    help="instants of the steady run beyond its first two (default 1000)")
    args = ap.parse_args(argv)
    run_each(args.chains, CHILD, [args.seed, args.instants], "run of %d chains failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
