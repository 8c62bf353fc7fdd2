"""Helpers shared by the workloads."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple


class Op(NamedTuple):
    """One operation of a workload: its size class and its inputs."""

    cls: str
    spec: object


def call_cli(cli, argv):
    """Run the CLI in process, as `rbmx <argv>` would; (exit code, stdout).
    ``cli.main`` is looked up at call time, so a traced wrapper is seen."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def build_ops(rng, mix, cycles, make):
    """The operation sequence: `cycles` cycles, each holding exactly n
    operations of every (size class, n) in mix, in shuffled order.  The
    classes of a run therefore do not depend on the seed.  make(rng, key,
    tag) builds one operation; tag is unique within the sequence."""
    ops = []
    for c in range(cycles):
        group = [make(rng, key, "%d-%d" % (c, i)) for key, n in mix for i in range(n)]
        rng.shuffle(group)
        ops += group
    return ops


def cycle_len(mix):
    return sum(n for _, n in mix)


def rng_for(seed, name):
    return random.Random("%s:%d" % (name, seed))
