"""Time turning a tree-shaped factor graph into a Bayesian network and
scoring full states on it.

    python3 tools/tree.py --systems 4,8,16 [--seed 1] [--states 1000]

Each tree has m systems.  System 0 joins v0 and v1; every later system
joins one existing variable, picked at random, to a new one, so the graph
is a tree over m + 1 variables.  Each variable's domain has 2 to 4 values.
A system has one outcome per value of the variable it attaches by, whose
row is one state giving that value and a random value of the new
variable, plus up to two outcomes with random states; weights are random.
Every value of the shared variable is covered, so the joint is
consistent.  Of the full states scored, drawn with the seed, every other
one is drawn uniformly from the product of the domains, and mostly scores
0; the others follow the tree from system 0, each system's row drawn
among those agreeing with the value already drawn for its shared
variable, and score above 0.

For each size a fresh Python process builds the graph and the states,
then times `factorgraph.fg_to_bn(g)` and `bayes.bn_score` at every drawn
state in turn, and prints one JSON line: the size, the numbers of
variables, kernels and states, how many states scored above 0, the
seconds of each stage and of both, and the process's peak resident set
size from getrusage.  The line also gives sample_seconds, the time of
1,000 `bayes.bn_sample` draws on the network from one seeded rng, taken
after the scores and counted in neither stage.  The rbmx it runs is the
one under this checkout's src/.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from timing import positive_count, run_each, size_list  # noqa: E402

CHILD = """
import json, random, resource, sys, time
from fractions import Fraction
from rbmx import State, bayes, core, factorgraph

m, seed, count = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
rng = random.Random("tree:%d:%d" % (seed, m))
doms = {}

def domain():
    return tuple(range(rng.randint(2, 4)))

systems, tree = [], []
for i in range(m):
    if i == 0:
        shared, new = "v0", "v1"
        doms[shared] = domain()
    else:
        shared, new = rng.choice(sorted(doms)), "v%d" % (i + 1)
    doms[new] = domain()
    rows = [{shared: v, new: rng.choice(doms[new])} for v in doms[shared]]
    rows += [{shared: rng.choice(doms[shared]), new: rng.choice(doms[new])}
             for _ in range(rng.randint(0, 2))]
    tree.append((shared, rows))
    raw = [rng.randint(1, 4) for _ in rows]
    weights = {j: Fraction(w, sum(raw)) for j, w in enumerate(raw)}
    vars = [(n, core.Domain("d_" + n, doms[n])) for n in (shared, new)]
    systems.append(core.MixedSystem((list(weights), weights), vars,
                                    {j: [State(r)] for j, r in enumerate(rows)}))
g = factorgraph.factor_graph(systems, ["S%d" % i for i in range(m)])
names = sorted(doms)

def draw(i):
    if i % 2:
        return State({n: rng.choice(doms[n]) for n in names})
    q = dict(rng.choice(tree[0][1]))
    for shared, rows in tree[1:]:
        q.update(rng.choice([r for r in rows if r[shared] == q[shared]]))
    return State(q)

states = [draw(i) for i in range(count)]

t0 = time.perf_counter()
N = factorgraph.fg_to_bn(g)
t1 = time.perf_counter()
positive = sum(bayes.bn_score(N, q).value > 0 for q in states)
t2 = time.perf_counter()
draw = random.Random("sample:%d:%d" % (seed, m))
for _ in range(1000):
    bayes.bn_sample(N, {}, draw)
t3 = time.perf_counter()
print(json.dumps({
    "systems": m, "variables": len(names), "kernels": len(N.kernels), "states": count,
    "positive": positive, "fg_to_bn_seconds": round(t1 - t0, 4),
    "score_seconds": round(t2 - t1, 4), "seconds": round(t2 - t0, 4),
    "sample_seconds": round(t3 - t2, 4),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)}))
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--systems", type=size_list("system"), default=[4, 8, 16],
                    help="comma-separated tree sizes in systems (default 4,8,16)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the trees and states")
    ap.add_argument("--states", type=positive_count("a state"), default=1000,
                    help="number of full states to score per tree (default 1000)")
    args = ap.parse_args(argv)
    run_each(args.systems, CHILD, [args.seed, args.states], "tree of %d systems failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
