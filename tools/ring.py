"""Time the simulation check of a ring SPA, or of its mixed automaton
image, against itself.

    python3 tools/ring.py --states 150,300,600 [--bisim | --read] [--ma] [--split]

The ring has states q0 .. q(n-1) and one action, a, with one transition
from each state.  By default it is the Dirac ring: the transition moves all
of its mass to the next state of the ring.  With --split it moves half of
it to the next state and half to the one after, so no target is a point
mass: the simulation check's cover stage removes no pair and every lift
needs an exact coupling, which makes it the worst case of the staged check.
Either way every state simulates every other, so the check keeps all n * n
pairs.  For each size a fresh Python process builds the ring, runs
`spa_simulates(P, P)` (with --bisim, `spa_bisimilar(P, P)`) once and prints
one JSON line: the automaton kind, the ring, the size, the check, the
number of related pairs, the seconds the check took and the process's peak
resident set size from getrusage.

With --ma the check is `automata.simulates(M, M)` (with --bisim,
`automata.bisimilar(M, M)`) on M = `spa_to_ma(P)`, built before the clock
starts.  M has 2n states, the ring's and one commitment token per ring
state.  Every ring state is related to every ring state and every token to
every token: 2 * n * n pairs.

With --read no check runs: the line gives the seconds `cli._loads` takes to
decode the ring's JSON document (with --ma, the document of its image M)
and the seconds `cli._model` takes to build the model from the decoded
document, with the document's size in bytes.  An image's document repeats
M's domain, n + n values, in each of its 2n targets.  The rbmx it runs is
the one under this checkout's src/.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from timing import run_each, size_list  # noqa: E402

CHILD = """
import json, resource, sys, time
from fractions import Fraction
from rbmx import automata, cli
from rbmx.embeddings import SPA, spa_bisimilar, spa_simulates, spa_to_json, spa_to_ma

n, mode, kind, ring = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
states = ["q%d" % i for i in range(n)]
steps = (1, 2) if ring == "split" else (1,)

def dist(i):
    d = {}
    for k in steps:
        s = states[(i + k) % n]
        d[s] = d.get(s, 0) + Fraction(1, len(steps))
    return d

X = SPA(("a",), states, states[0], [(q, "a", dist(i)) for i, q in enumerate(states)])
if kind == "ma":
    X = spa_to_ma(X)
line = {"automaton": kind, "ring": ring, "states": n}
if mode == "read":
    text = json.dumps(automata.ma_to_json(X) if kind == "ma" else spa_to_json(X))
    t0 = time.perf_counter()
    doc = cli._loads(text, "ring")
    t1 = time.perf_counter()
    cli._model(doc)
    t2 = time.perf_counter()
    line.update(bytes=len(text), loads_seconds=round(t1 - t0, 3),
                model_seconds=round(t2 - t1, 3))
else:
    bisim = mode == "bisim"
    if kind == "ma":
        check = automata.bisimilar if bisim else automata.simulates
    else:
        check = spa_bisimilar if bisim else spa_simulates
    t0 = time.perf_counter()
    R = check(X, X)
    line.update(check="bisimulation" if bisim else "simulation",
                pairs=None if R is None else len(R),
                seconds=round(time.perf_counter() - t0, 3))
line["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
print(json.dumps(line))
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--states", type=size_list("state"), default=[150, 300, 600],
                    help="comma-separated ring sizes (default 150,300,600)")
    ap.add_argument("--bisim", action="store_true",
                    help="time the bisimulation check instead of the simulation check")
    ap.add_argument("--ma", action="store_true",
                    help="check the ring's spa_to_ma image with automata.simulates "
                         "(automata.bisimilar with --bisim)")
    ap.add_argument("--split", action="store_true",
                    help="split each transition's mass evenly between the next two "
                         "states instead of moving it all to the next one")
    ap.add_argument("--read", action="store_true",
                    help="time reading the ring's JSON document (with --ma, its "
                         "image's) through cli._loads and cli._model; no check runs")
    args = ap.parse_args(argv)
    if args.read and args.bisim:
        ap.error("--read runs no check, so --bisim has nothing to choose")
    mode = "read" if args.read else "bisim" if args.bisim else "sim"
    run_each(args.states, CHILD, [mode, "ma" if args.ma else "spa",
                                  "split" if args.split else "dirac"],
             "ring of %d states failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
