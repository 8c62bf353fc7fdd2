import random
from fractions import Fraction
from math import gcd

from rbmx.transport import Masses, coupling, covers, feasible_transport

from .oracles import cut_feasible, probe_covered

HALF = Fraction(1, 2)


def check_witness(w, mu1, mu2, allowed):
    """w is a joint measure on allowed pairs with marginals mu1 and mu2."""
    assert all(m > 0 and pair in allowed for pair, m in w.items())
    for side, mu in ((0, mu1), (1, mu2)):
        for key, mass in mu.items():
            got = sum((m for pair, m in w.items() if pair[side] == key), Fraction(0))
            assert got == mass, (side, key)


def both_forms(mu1, mu2, allowed):
    """The witnesses for the Fraction dicts and for their compiled forms;
    their verdicts agree, and the compiled form's witness is coupling's
    integer flow divided by its scale."""
    w = feasible_transport(mu1, mu2, allowed)
    wc = feasible_transport(Masses(mu1), Masses(mu2), allowed)
    assert (w is None) == (wc is None), (mu1, mu2, allowed)
    found = coupling(Masses(mu1), Masses(mu2), allowed)
    assert (found is None) == (wc is None)
    if found is not None:
        flow, scale = found
        assert all(type(m) is int for m in flow.values())
        assert {pair: Fraction(m, scale) for pair, m in flow.items()} == wc
    return w, wc


def test_a_backward_step_reroutes_placed_mass():
    # the first round places a -> c; b then reaches d only by undoing it
    mu1, mu2 = {"a": HALF, "b": HALF}, {"c": HALF, "d": HALF}
    allowed = [("a", "c"), ("a", "d"), ("b", "c")]
    assert feasible_transport(mu1, mu2, allowed) == {("a", "d"): HALF, ("b", "c"): HALF}


def test_zero_totals_and_unequal_totals():
    assert feasible_transport({"a": Fraction(0)}, {}, []) == {}
    assert feasible_transport({"a": HALF}, {"a": Fraction(1)}, [("a", "a")]) is None


def _measure(rng, keys):
    # zero masses included; the denominators keep sums exact but uneven
    return {k: Fraction(rng.randint(0, 4), rng.choice((1, 2, 3, 5))) for k in keys}


def test_agrees_with_the_cut_oracle_on_random_instances():
    rng = random.Random(2201)
    feasible = 0
    for _ in range(1500):
        left = ["l%d" % i for i in range(rng.randint(0, 7))]
        right = ["r%d" % i for i in range(rng.randint(0, 7))]
        right += rng.sample(left, min(len(left), rng.randint(0, 2)))  # shared keys
        mu1, mu2 = _measure(rng, left), _measure(rng, right[:7])
        t1, t2 = sum(mu1.values(), Fraction(0)), sum(mu2.values(), Fraction(0))
        if t1 and t2 and rng.random() < 0.8:  # else the totals differ
            mu2 = {k: m * t1 / t2 for k, m in mu2.items()}
        density = rng.choice((0.3, 0.6, 0.9))
        allowed = [(a, b) for a in mu1 for b in mu2 if rng.random() < density]
        allowed += rng.sample(allowed, min(len(allowed), 3))  # duplicate pairs
        w, wc = both_forms(mu1, mu2, allowed)
        assert (w is not None) == cut_feasible(mu1, mu2, allowed), (mu1, mu2, allowed)
        if w is not None:
            feasible += 1
            check_witness(w, mu1, mu2, set(allowed))
            check_witness(wc, mu1, mu2, set(allowed))
    assert feasible > 300


def test_large_coprime_denominators_stay_exact():
    # denominators 10**40 + k, pairwise coprime, so the common scale has
    # hundreds of digits; witnesses come back as exact Fractions
    big = [10 ** 40 + k for k in (1, 3, 7, 9, 13, 19, 21)]
    assert all(gcd(a, b) == 1 for a in big for b in big if a < b)
    rng = random.Random(7474)
    feasible = 0
    for _ in range(200):
        mu1 = {"l%d" % i: Fraction(rng.randint(1, 3), rng.choice(big))
               for i in range(rng.randint(1, 5))}
        mu2 = {"r%d" % i: Fraction(rng.randint(1, 3), rng.choice(big))
               for i in range(rng.randint(1, 5))}
        t1, t2 = sum(mu1.values()), sum(mu2.values())
        mu2 = {k: m * t1 / t2 for k, m in mu2.items()}
        allowed = [(a, b) for a in mu1 for b in mu2 if rng.random() < 0.6]
        w, wc = both_forms(mu1, mu2, allowed)
        assert (w is not None) == cut_feasible(mu1, mu2, allowed), (mu1, mu2, allowed)
        if w is None:
            continue
        feasible += 1
        for witness in (w, wc):
            assert all(type(m) is Fraction for m in witness.values())
            check_witness(witness, mu1, mu2, set(allowed))
        # a total off by 1/(10**40 + 7) admits no coupling at all
        off = dict(mu2, r0=mu2["r0"] + Fraction(1, big[2]))
        assert both_forms(mu1, off, [(a, b) for a in mu1 for b in off]) == (None, None)
    assert feasible > 40


def test_compiled_masses_are_positive_ints_over_one_scale():
    m = Masses({"a": Fraction(1, 6), "z": Fraction(0), "b": Fraction(3, 4), "c": Fraction(1, 12)})
    assert m.scale == 12
    assert list(m.mass.items()) == [("a", 2), ("b", 9), ("c", 1)]
    assert m.total == 12
    assert Masses({}).mass == {} and Masses({}).scale == 1 and Masses({}).total == 0


def northwest_corner(mu1, mu2):
    """The coupling that fills pairs in order of mu1's keys, then mu2's,
    each taking all it can: what the greedy pass places when every pair is
    allowed."""
    room = {b: m for b, m in mu2.items() if m}
    w = {}
    for a, m in mu1.items():
        for b in list(room):
            if not m:
                break
            push = min(m, room[b])
            w[(a, b)] = push
            m -= push
            room[b] -= push
            if not room[b]:
                del room[b]
    return w


def test_complete_and_point_mass_instances_need_no_search():
    # with every pair allowed, or a point mass on one side, the greedy pass
    # places everything: the witness is the northwest corner, in both forms
    rng = random.Random(2202)
    for _ in range(300):
        mu1 = _measure(rng, ["l%d" % i for i in range(rng.randint(1, 6))])
        mu2 = _measure(rng, ["r%d" % i for i in range(rng.randint(1, 6))])
        if rng.random() < 0.3:
            mu1 = {"l": Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))}
        elif rng.random() < 0.3:
            mu2 = {"r": Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))}
        t1, t2 = sum(mu1.values(), Fraction(0)), sum(mu2.values(), Fraction(0))
        if not (t1 and t2):
            continue
        mu2 = {k: m * t1 / t2 for k, m in mu2.items()}
        allowed = [(a, b) for a in mu1 for b in mu2]
        want = northwest_corner(mu1, mu2)
        assert both_forms(mu1, mu2, allowed) == (want, want)
        # a point mass sends each right key its own mass, in any pair order
        support = [a for a, m in mu1.items() if m]
        if len(support) == 1:
            rng.shuffle(allowed)
            want = {(support[0], b): m for b, m in mu2.items() if m}
            assert both_forms(mu1, mu2, allowed) == (want, want)


def test_covers_is_needed_for_a_coupling_and_enough_at_a_point():
    # covers reads distinct pairs of positive keys, as the couplers list them
    rng = random.Random(2203)
    seen = {"point": 0, "covered, no coupling": 0, "uncovered": 0, "coupled": 0}
    for _ in range(1500):
        left = ["l%d" % i for i in range(rng.randint(0, 4))]
        right = ["r%d" % i for i in range(rng.randint(0, 4))]
        mu1, mu2 = _measure(rng, left), _measure(rng, right)
        t1, t2 = sum(mu1.values(), Fraction(0)), sum(mu2.values(), Fraction(0))
        if t1 and t2 and rng.random() < 0.9:  # else the totals differ
            mu2 = {k: m * t1 / t2 for k, m in mu2.items()}
        m1, m2 = Masses(mu1), Masses(mu2)
        density = rng.choice((0.4, 0.7, 1.0))
        allowed = [(a, b) for a in m1.mass for b in m2.mass if rng.random() < density]
        got = covers(m1, m2, allowed)
        assert got == probe_covered(mu1, mu2, allowed), (mu1, mu2, allowed)
        feasible = cut_feasible(mu1, mu2, allowed)
        assert got or not feasible
        if min(len(m1.mass), len(m2.mass)) <= 1:
            assert got == feasible
            seen["point"] += 1
        seen["coupled" if feasible else "covered, no coupling" if got else "uncovered"] += 1
    assert min(seen.values()) > 50, seen
