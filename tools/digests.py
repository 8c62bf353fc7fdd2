"""What the digest tools outputs.py and programs.py share: the parser
of their checkout arguments, the fresh child process each digest runs in a
checkout, and the comparison of one or two checkouts' digests.  It is not
a tool itself; each tool puts its own directory on sys.path to import it,
so a tool loaded by file path finds it too.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 1800


def parser(doc):
    """An argument parser described by doc's first line, taking one or
    more checkouts."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    return ap


def parse_args(ap, argv):
    """ap's arguments from argv; more than two checkouts are refused."""
    args = ap.parse_args(argv)
    if len(args.checkouts) > 2:
        ap.error("give one or two checkouts")
    return args


def run_child(checkout, child, argv, stdin, what):
    """Run the script child with argv in a fresh Python process in
    checkout, with hash randomization fixed and no bytecode written, and
    return {"checkout": checkout} joined with the JSON object on the last
    line it prints.  A failed run exits, naming what ran in checkout."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, "-c", child] + argv, input=stdin, cwd=checkout,
                       env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise SystemExit("%s in %s exited with %d:\n%s"
                         % (what, checkout, r.returncode, r.stderr))
    got = json.loads(r.stdout.strip().splitlines()[-1])
    return dict(checkout=checkout, **got)


def compare(checkouts, digest, count):
    """Print digest(checkout) of each checkout as one JSON line; 0 when all
    agree on count and sha256, 1 when they differ."""
    results = []
    for checkout in checkouts:
        results.append(digest(checkout))
        print(json.dumps(results[-1]), flush=True)
    first = results[0]
    same = all((r[count], r["sha256"]) == (first[count], first["sha256"]) for r in results)
    return 0 if same else 1
