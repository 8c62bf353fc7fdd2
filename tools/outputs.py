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

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from digests import compare, parse_args, parser, run_child  # noqa: E402

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
    return run_child(checkout, CHILD, [workload, str(seed), workdir], None,
                     "the workload")


def main(argv=None):
    ap = parser(__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = parse_args(ap, argv)

    def one(checkout):
        with tempfile.TemporaryDirectory(prefix="outputs-") as workdir:
            return digest(os.path.abspath(checkout), args.workload, args.seed, workdir)

    return compare(args.checkouts, one, "operations")


if __name__ == "__main__":
    sys.exit(main())
