"""Digest the results of every operation of a benchmark workload, per checkout.

    python3 tools/outputs.py CHECKOUT [CHECKOUT2] --workload W [--seed S]

For each checkout, a fresh Python process started in that checkout builds
the workload from the checkout's own `bench/` and `src/`, with seed S, and
runs every warm-up operation and then every operation of its sequence
once, in order.  The process writes no bytecode, and the workload's files
go to a temporary directory, so both trees are only read.  Hash
randomization is fixed, so a result that prints a set or a dict built from
one prints it in the same order every time.

It prints one JSON line per checkout: the checkout, the number of
operations, and the sha256 of the repr of every result in order (an
operation that raises contributes its error's type and message instead).
With two checkouts it exits 1 when the digests or the counts differ, and 0
when they agree.  It imports nothing from either checkout itself.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 1800

# run in the checkout's root, with the workload name, the seed and a work
# directory as arguments; prints {"operations": n, "sha256": hex}
CHILD = r"""
import hashlib, json, os, sys
sys.path.insert(0, os.path.join(os.getcwd(), "bench"))
import worker
name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
rbmx = worker.import_rbmx()
wl = worker.load_workload(name)(seed, workdir, rbmx)
digest = hashlib.sha256()
count = 0
for op in list(wl.warmup) + list(wl.ops):
    try:
        got = repr(wl.run(op))
    except Exception as exc:  # a failing operation is part of the output
        got = "raised %s: %s" % (type(exc).__name__, exc)
    digest.update(("%d\n%s\n" % (len(got), got)).encode())
    count += 1
print(json.dumps({"operations": count, "sha256": digest.hexdigest()}))
"""


def digest(checkout, workload, seed, workdir):
    """{"checkout", "operations", "sha256"} of one checkout's results."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, "-c", CHILD, workload, str(seed), workdir],
                       cwd=checkout, env=env, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise SystemExit("the workload in %s exited with %d:\n%s"
                         % (checkout, r.returncode, r.stderr))
    got = json.loads(r.stdout.strip().splitlines()[-1])
    return dict(checkout=checkout, **got)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if len(args.checkouts) > 2:
        ap.error("give one or two checkouts")
    results = []
    for checkout in args.checkouts:
        with tempfile.TemporaryDirectory(prefix="outputs-") as workdir:
            results.append(digest(os.path.abspath(checkout), args.workload, args.seed,
                                  workdir))
        print(json.dumps(results[-1]), flush=True)
    first = results[0]
    same = all((r["operations"], r["sha256"]) == (first["operations"], first["sha256"])
               for r in results)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
