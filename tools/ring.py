"""Time the simulation check of a Dirac ring SPA against itself.

    python3 tools/ring.py --states 150,300,600 [--bisim]

The ring has states q0 .. q(n-1) and one action, a, whose one transition
from each state moves all of its mass to the next state of the ring.  Every
state simulates every other, so the check keeps all n * n pairs.  For each
size a fresh Python process builds the ring, runs `spa_simulates(P, P)`
(with --bisim, `spa_bisimilar(P, P)`) once and prints one JSON line: the
size, the check, the number of related pairs, the seconds the check took
and the process's peak resident set size from getrusage.  The rbmx it runs
is the one under this checkout's src/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, resource, sys, time
from rbmx.embeddings import SPA, spa_bisimilar, spa_simulates

n, bisim = int(sys.argv[1]), sys.argv[2] == "bisim"
states = ["q%d" % i for i in range(n)]
P = SPA(("a",), states, states[0],
        [(q, "a", {states[(i + 1) % n]: 1}) for i, q in enumerate(states)])
t0 = time.perf_counter()
R = (spa_bisimilar if bisim else spa_simulates)(P, P)
seconds = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"states": n, "check": "bisimulation" if bisim else "simulation",
                  "pairs": None if R is None else len(R), "seconds": round(seconds, 3),
                  "peak_rss_mb": round(peak, 1)}))
"""


def sizes(text):
    try:
        out = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("want a comma-separated list of state counts")
    if not out or min(out) < 1:
        raise argparse.ArgumentTypeError("every state count must be at least 1")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--states", type=sizes, default=[150, 300, 600],
                    help="comma-separated ring sizes (default 150,300,600)")
    ap.add_argument("--bisim", action="store_true",
                    help="time spa_bisimilar instead of spa_simulates")
    args = ap.parse_args(argv)
    path = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=path + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for n in args.states:
        r = subprocess.run([sys.executable, "-c", CHILD, str(n),
                            "bisim" if args.bisim else "sim"],
                           env=env, capture_output=True, text=True)
        if r.returncode != 0:
            raise SystemExit("ring of %d states failed:\n%s" % (n, r.stderr))
        print(r.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
