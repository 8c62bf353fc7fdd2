"""simcheck_images: `rbmx simcheck A B [--bisim]` on JSON automata.

Set-up draws seeded simple probabilistic automata (SPAs) with nq states
and writes each one twice: as a `kind: spa` document and as its
`spa_to_ma` image, a mixed automaton document.  Half of the pairs compare
A with a relabelled copy of A, so every verdict is true by construction.
The other half compare independent draws; their forward verdict is checked
against the naive greatest simulation below, computed at set-up.

`--bisim` is used only where its verdict is pinned whatever it computes:
on relabelled copies (true) and on pairs whose forward simulation fails
(false, since bisimulation implies simulation).

This workload runs the automata, embeddings, transport and JSON loader
layers and bypasses `rblang` and bulk `compose`.
"""

import json
import os
from fractions import Fraction
from itertools import combinations

from common import Op, build_ops, call_cli, cycle_len, rng_for

ACTS = ("a", "b")
WEIGHTS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
# (document kind, nq, pair type, --bisim, forward verdict) -> ops per cycle
# of 40, in bands of similar cost; half of the pairs are copies.  Op times
# vary by 15-30% between instances of one class whatever nq is, so steady
# percentiles come from many distinct instances per band and from fixing
# each class's verdict, which sets how many pairs survive refinement: p50
# falls inside the ~25 ms band (25%..70% of ops) and p90 inside the ~45 ms
# band (75%..95%).
MIX = (
    # ~12 ms
    (("spa", 5, "indep", False, True), 5),
    (("spa", 5, "copy", False, True), 2),
    (("ma", 3, "copy", True, True), 3),
    # ~25 ms
    (("spa", 6, "indep", False, False), 3),
    (("ma", 3, "indep", True, False), 2),
    (("spa", 8, "indep", False, False), 4),
    (("spa", 8, "copy", False, True), 5),
    (("spa", 6, "copy", True, True), 4),
    # ~34 ms
    (("ma", 4, "indep", False, True), 1),
    (("ma", 4, "copy", False, True), 1),
    # ~45 ms
    (("spa", 8, "indep", True, False), 2),
    (("ma", 5, "indep", False, False), 2),
    (("ma", 5, "copy", False, True), 2),
    (("spa", 12, "copy", False, True), 2),
    # 90..300 ms
    (("spa", 16, "indep", False, False), 1),
    (("ma", 12, "copy", False, True), 1),
)
CYCLES = 7


# --- generators -----------------------------------------------------------


def rand_dist(rng, states):
    """A distribution over one or two states: the naive reference relies on
    supports of at most two."""
    if rng.random() < 0.4:
        return {rng.choice(states): Fraction(1)}
    s, t = rng.sample(states, 2)
    p = rng.choice(WEIGHTS)
    return {s: p, t: 1 - p}


def rand_spa(rng, nq, prefix, dead):
    """(states, initial, transitions) with fixed counts, so that instances
    of one size cost alike.  On action a every state has a candidate that
    reaches the next state of a ring, so every state is reachable, and half
    of the states have a second one.  On action b, `dead` states have no
    candidate, which is where simulations fail, and a quarter have two."""
    states = ["%s%d" % (prefix, i) for i in range(nq)]
    extra_a = set(rng.sample(range(nq), nq // 2))
    no_b = set(rng.sample(range(nq), dead))
    two_b = set(rng.sample(sorted(set(range(nq)) - no_b), nq // 4))
    transitions = []
    for i, q in enumerate(states):
        ring = rand_dist(rng, states)
        if states[(i + 1) % nq] not in ring:
            ring = {states[(i + 1) % nq]: ring.pop(next(iter(ring))), **ring}
        transitions.append((q, "a", ring))
        if i in extra_a:
            transitions.append((q, "a", rand_dist(rng, states)))
        for _ in range((i not in no_b) + (i in two_b)):
            transitions.append((q, "b", rand_dist(rng, states)))
    return states, states[0], transitions


def relabelled(rng, spa, prefix):
    """An isomorphic copy with fresh state names; returns it and the
    renaming."""
    states, initial, transitions = spa
    names = ["%s%d" % (prefix, i) for i in range(len(states))]
    rng.shuffle(names)
    ren = dict(zip(states, names))
    moved = [(ren[q], a, {ren[s]: m for s, m in d.items()}) for q, a, d in transitions]
    rng.shuffle(moved)
    order = list(names)
    rng.shuffle(order)
    return (order, ren[initial], moved), ren


def spa_doc(spa):
    states, initial, transitions = spa
    return {
        "kind": "spa",
        "alphabet": list(ACTS),
        "states": list(states),
        "initial": initial,
        "transitions": [
            {"from": q, "action": a,
             "dist": [[s, "%d/%d" % (m.numerator, m.denominator)] for s, m in d.items()]}
            for q, a, d in transitions
        ],
    }


# --- naive reference ----------------------------------------------------------


def hall_feasible(mu1, mu2, R):
    """mu1 couples into mu2 inside R: every set A of mu1's support needs
    mu1(A) <= mu2(states related to A) (Hall's condition; equal totals)."""
    keys = list(mu1)
    for size in range(1, len(keys) + 1):
        for A in combinations(keys, size):
            reach = {t for t in mu2 if any((s, t) in R for s in A)}
            if sum(mu1[s] for s in A) > sum(mu2[t] for t in reach):
                return False
    return True


def greatest_simulation(P1, P2):
    """The greatest SPA simulation of P1 by P2, by removing pairs until
    none fails: every candidate of q1 on an action needs a candidate of q2
    on the same action that couples with it inside the relation.  Masses
    are counted in units of 1/12, which every weight is a multiple of."""
    states1, _, trans1 = P1
    states2, _, trans2 = P2
    twelfths = lambda d: {s: int(m * 12) for s, m in d.items()}  # noqa: E731
    out1, out2 = {}, {}
    for q, a, d in trans1:
        out1.setdefault(q, []).append((a, twelfths(d)))
    for q, a, d in trans2:
        out2.setdefault((q, a), []).append(twelfths(d))
    R = {(p, q) for p in states1 for q in states2}
    while True:
        bad = {
            (p, q) for p, q in R
            if any(not any(hall_feasible(d1, d2, R) for d2 in out2.get((q, a), ()))
                   for a, d1 in out1.get(p, ()))
        }
        if not bad:
            return R
        R -= bad


# --- workload -------------------------------------------------------------------


class Workload:
    name = "simcheck_images"

    def __init__(self, seed, workdir, rbmx):
        self.cli = rbmx.cli
        self.rbmx = rbmx
        self.workdir = workdir
        rng = rng_for(seed, self.name)
        self.ops = build_ops(rng, MIX, CYCLES, self._make)
        self.cycle_len = cycle_len(MIX)
        self.warmup = [self._make(rng, key, "warm") for key, _ in MIX]

    def _write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _image_doc(self, spa, var):
        emb = self.rbmx.embeddings
        P = emb.spa_from_json(spa_doc(spa))
        return self.rbmx.automata.ma_to_json(emb.spa_to_ma(P, var=var))

    def _make(self, rng, key, tag):
        kind, nq, pair, bisim, verdict = key
        A = rand_spa(rng, nq, "q", nq // 4)
        if pair == "copy":
            B, ren = relabelled(rng, A, "r")
            forward = True
            # the renaming is itself a simulation, so the greatest one holds
            # every renamed pair
            expect = {(q, r) for q, r in ren.items()}
            exact = False
        else:
            # draw until the forward verdict is the class's; fewer dead
            # states in B make a true verdict likely
            while True:
                B = rand_spa(rng, nq, "r", nq // 8 if verdict else max(1, nq // 4))
                expect = greatest_simulation(A, B)
                forward = ("q0", "r0") in expect
                exact = True
                if forward == verdict:
                    break
        if kind == "spa":
            docs = spa_doc(A), spa_doc(B)
        else:
            docs = self._image_doc(A, "x1"), self._image_doc(B, "x2")
        base = "sim-%s-%d-%s-%s" % (kind, nq, pair, tag)
        pa = self._write(base + "-A.json", docs[0])
        pb = self._write(base + "-B.json", docs[1])
        argv = ["simcheck", pa, pb] + (["--bisim"] if bisim else [])
        if bisim and pair != "copy" and verdict:
            # --bisim runs only where its verdict is pinned: on copies
            # (true) and on pairs whose forward simulation fails (false)
            raise ValueError("--bisim on an independent pair with a true forward verdict")
        cls = "%s/nq=%d/%s%s/%s" % (kind, nq, pair, "/bisim" if bisim else "", verdict)
        # SPA relations range over all states and can be compared pair by
        # pair; image relations range over reachable image states only
        if kind != "spa" or not verdict:
            expect = None
        return Op(cls, (kind, verdict, expect, exact, argv))

    def run(self, op):
        return call_cli(self.cli, op.spec[-1])

    def check(self, op, result):
        kind, verdict, expect, exact, _ = op.spec
        rc, text = result
        if rc != (0 if verdict else 1):
            return "exit code %d, expected verdict %s" % (rc, verdict)
        doc = json.loads(text)
        if doc["verdict"] is not verdict or doc["kind"] != kind:
            return "verdict %s on %s, expected %s" % (doc["verdict"], doc["kind"], verdict)
        if expect is not None:
            pairs = {(a, b) for a, b in doc["pairs"]}
            diff = expect ^ pairs if exact else expect - pairs
            if diff:
                return "relation differs from the reference at %s" % sorted(diff)[:3]
        return None
