"""sample_chains: `rbmx sample` on k independent noisy xor chains.

Chain i has a noise bit n_i ~ Bernoulli(1/10) and x_i = xor2(pre x_i, n_i),
starting from x_i = F.  Half of the chains (k // 2) carry `observe x_i`.
Every instant composes the 2^k-outcome step system, and then one point
system per observed chain, so this is the write-heavy use of `core`.

The check recomputes, from the trace the CLI prints, what the model
implies: the observed chains follow the observation records, every chain
obeys x_i = xor(previous x_i, n_i), every flag is true, and each norm is
the product over observed chains of 9/10 (observation equals the chain's
previous value) or 1/10 (it differs), in exact fractions.
"""

import json
import os
from fractions import Fraction

from common import Op, build_ops, call_cli, cycle_len, rng_for

STEPS = 10
NOISE = Fraction(1, 10)
FLIP_OBS = 0.3  # chance that an observation differs from the previous one
# ops per cycle for each chain count k; p50 falls inside k=4 (21%..63% of
# ops) and p90 inside k=6 (75%..96%)
MIX = ((2, 2), (3, 3), (4, 10), (5, 3), (6, 5), (7, 1))
CYCLES = 6

XOR = "func xor2 : (bool, bool) -> bool { (F,F) -> F, (F,T) -> T, (T,F) -> T, (T,T) -> F }"


def program_text(k, observed):
    lines = ["domain bool = { F, T }"]
    lines += ["var x%d, n%d : bool" % (i, i) for i in range(k)]
    lines.append(XOR)
    for i in range(k):
        lines.append("|| init x%d = F" % i)
        lines.append("|| n%d ~ Bernoulli(1/10)" % i)
        lines.append("|| x%d = xor2(pre x%d, n%d)" % (i, i, i))
        if "x%d" % i in observed:
            lines.append("|| observe x%d" % i)
    return "\n".join(lines) + "\n"


class Workload:
    name = "sample_chains"

    def __init__(self, seed, workdir, rbmx):
        self.cli = rbmx.cli
        self.workdir = workdir
        rng = rng_for(seed, self.name)
        self.ops = build_ops(rng, MIX, CYCLES, self._make)
        self.cycle_len = cycle_len(MIX)
        self.warmup = [self._make(rng, k, "warm") for k, _ in MIX]

    def _make(self, rng, k, tag):
        observed = sorted(rng.sample(["x%d" % i for i in range(k)], k // 2))
        records = []
        last = {x: False for x in observed}
        for _ in range(STEPS - 1):
            rec = {x: (not last[x]) if rng.random() < FLIP_OBS else last[x] for x in observed}
            records.append(rec)
            last = rec
        base = os.path.join(self.workdir, "chains-k%d-%s" % (k, tag))
        with open(base + ".rb", "w") as fh:
            fh.write(program_text(k, observed))
        with open(base + ".obs", "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        argv = ["sample", base + ".rb", "--steps", str(STEPS), "--obs", base + ".obs",
                "--seed", str(rng.randrange(2 ** 31))]
        return Op("k=%d" % k, (k, observed, records, argv))

    def run(self, op):
        return call_cli(self.cli, op.spec[3])

    def check(self, op, result):
        k, observed, records, _ = op.spec
        rc, text = result
        if rc != 0:
            return "exit code %d" % rc
        doc = json.loads(text)
        trace, norms, flags = doc["trace"], doc["norms"], doc["flags"]
        if len(trace) != STEPS or len(norms) != STEPS - 1 or flags != [True] * (STEPS - 1):
            return "trace, norms or flags have the wrong shape"
        if trace[0] != {"x%d" % i: False for i in range(k)}:
            return "instant 0 is not the initial state"
        for n in range(1, STEPS):
            prev, cur, rec = trace[n - 1], trace[n], records[n - 1]
            for i in range(k):
                x, noise = "x%d" % i, "n%d" % i
                if cur[x] != (prev[x] != cur[noise]):
                    return "instant %d: %s breaks the xor step" % (n, x)
            want = Fraction(1)
            for x in observed:
                if cur[x] != rec[x]:
                    return "instant %d: %s ignores its observation" % (n, x)
                want *= 1 - NOISE if rec[x] == prev[x] else NOISE
            if Fraction(norms[n - 1]) != want:
                return "instant %d: norm %s, expected %s" % (n, norms[n - 1], want)
        return None
