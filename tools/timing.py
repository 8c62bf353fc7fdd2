"""What the timing tools ring.py, tree.py and steps.py share: their
argument types, and the loop that runs their child script once per size,
each time in a fresh Python process that imports the rbmx under this
checkout's src/.  It is not a tool itself; each tool puts its own
directory on sys.path to import it, so a tool loaded by file path finds it
too.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def size_list(what):
    """The argparse type of a comma-separated list of what-counts, each at
    least 1."""

    def parse(text):
        try:
            out = [int(s) for s in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                "want a comma-separated list of %s counts" % what)
        if not out or min(out) < 1:
            raise argparse.ArgumentTypeError("every %s count must be at least 1" % what)
        return out

    return parse


def positive_count(what):
    """The argparse type of one count of at least 1; what names it with its
    article ("a state")."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = 0
        if n < 1:
            raise argparse.ArgumentTypeError("want %s count of at least 1" % what)
        return n

    return parse


def run_each(sizes, child, args, failed):
    """Run the script child once per size, each in a fresh Python process
    with src/ first on PYTHONPATH and argv the size then args, and print the
    line it prints.  A failed run exits with failed % size and its stderr."""
    path = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=path + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for n in sizes:
        r = subprocess.run([sys.executable, "-c", child, str(n)] + [str(a) for a in args],
                           env=env, capture_output=True, text=True)
        if r.returncode != 0:
            raise SystemExit("%s:\n%s" % (failed % n, r.stderr))
        print(r.stdout.strip(), flush=True)
