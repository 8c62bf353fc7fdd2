"""End-to-end acceptance checks, one test per criterion.

Each test runs its whole workload, records a PASS/FAIL summary line (the
conftest hook reprints them after the test tail), and only then asserts, so
the report always shows every criterion's outcome.
"""

import itertools
import random
import time
from fractions import Fraction

from rbmx import (
    Domain,
    MixedSystem,
    PolarizedRelation,
    State,
    compose,
    compress,
    equivalent,
    inner,
    likelihood,
    nil_system,
    outer,
    polarized_score,
    sample,
)
from rbmx.automata import (
    MixedAutomaton,
    lift_check,
    ma_compose,
    sim_equivalent,
    simulates,
    verify_weighting,
)
from rbmx.bayes import BayesianNetwork, bayes_split, bn_score, kernel_from_system
from rbmx.core import all_states, conditioned
from rbmx.embeddings import (
    PA,
    _pair,
    ma_to_spa,
    pa_compose,
    pa_simulates,
    pa_to_ma,
    spa_compose,
    spa_simulates,
    spa_to_ma,
)
from rbmx.factorgraph import fg_to_bn
from rbmx.rblang import elaborate_static, parse

from .conftest import record
from .oracles import (
    allowed_pairs,
    consistent_tree_fgs,
    cut_feasible,
    equivalent_variant,
    naive_point_outer,
    rand_domain,
    rand_ma,
    rand_pa,
    rand_spa,
    rand_system,
    rand_system_over,
)
from rbmx.core import Var


def test_criterion_1_bayes_formula():
    rng = random.Random(1001)
    t0 = time.time()
    bad = 0
    systems = 0
    while systems < 200:
        S = rand_system(rng, max_omega=6, max_vars=3, dom_max=3)
        systems += 1
        whole = BayesianNetwork([kernel_from_system(S, name="joint")])
        states = list(all_states(S.vars))
        base = {q: bn_score(whole, q).value for q in states}
        for q in states:
            if base[q] != naive_point_outer(S, q):
                bad += 1
        names = list(S.var_names)
        for r in range(len(names) + 1):
            for Y in itertools.combinations(names, r):
                N = bayes_split(S, Y)
                for q in states:
                    if bn_score(N, q).value != base[q]:
                        bad += 1
        del S, whole, base
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 30
    record(1, ok, "Bayes split scores == joint scores, 200 systems x all "
                  "variable subsets x all states, %d mismatches (%.1fs)"
                  % (bad, elapsed))
    assert bad == 0
    assert elapsed < 30, elapsed


def test_criterion_2_compression_invariance():
    rng = random.Random(1002)
    t0 = time.time()
    bad = 0
    for _ in range(500):
        S = rand_system(rng)
        C = compress(S)
        states = list(all_states(S.vars))
        A = rng.sample(states, min(len(states), rng.randint(1, 3)))
        v = rng.choice(S.var_names)
        val = rng.choice(S.domain_of(v).values)
        pred = lambda q: q[v] == val
        checks = (
            outer(S, A) == outer(C, A),
            inner(S, A) == inner(C, A),
            likelihood(S, A) == likelihood(C, A),
            outer(S, pred) == outer(C, pred),
            inner(S, pred) == inner(C, pred),
            likelihood(S, pred) == likelihood(C, pred),
        )
        if not all(checks):
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0
    record(2, ok, "outer/inner/likelihood invariant under compress on 500 "
                  "systems, %d failures (%.1fs)" % (bad, elapsed))
    assert bad == 0


def rand_shared_triple(rng):
    """Three systems over subsets of one variable pool, so any pair or
    triple composes without domain clashes."""
    nv = rng.randint(1, 3)
    pool = [Var("x%d" % i, rand_domain(rng, "D%d" % i)) for i in range(nv)]
    out = []
    for _ in range(3):
        vars = rng.sample(pool, rng.randint(1, nv))
        out.append(rand_system_over(rng, vars, max_omega=4))
    return out


def test_criterion_3_composition_algebra():
    rng = random.Random(1003)
    t0 = time.time()
    bad = {"nil": 0, "comm": 0, "assoc": 0, "congr": 0}
    for _ in range(200):
        S1, S2, S3 = rand_shared_triple(rng)
        if not equivalent(compose(S1, nil_system()), S1) \
                or not equivalent(compose(nil_system(), S1), S1):
            bad["nil"] += 1
        if not equivalent(compose(S1, S2), compose(S2, S1)):
            bad["comm"] += 1
        if not equivalent(compose(S1, compose(S2, S3)),
                          compose(compose(S1, S2), S3)):
            bad["assoc"] += 1
        if not equivalent(compose(equivalent_variant(S1, rng),
                                  equivalent_variant(S2, rng)),
                          compose(S1, S2)):
            bad["congr"] += 1
    elapsed = time.time() - t0
    total = sum(bad.values())
    record(3, total == 0,
           "nil neutrality, commutativity, associativity, congruence on 200 "
           "random triples, failures %r (%.1fs)" % (bad, elapsed))
    assert total == 0, bad


def test_criterion_4_tree_message_passing():
    rng = random.Random(1004)
    t0 = time.time()
    bad = 0
    graphs = 0
    for g, joint in consistent_tree_fgs(rng, 18):
        graphs += 1
        # one pass over the joint gives every point score at once
        pt = conditioned(joint)
        point = {}
        for o in joint.omega:
            w = pt.weights[o]
            if w == 0:
                continue
            for q in joint.rel[o]:
                point[q] = point.get(q, Fraction(0)) + w
        for root in g.labels:
            N = fg_to_bn(g, root=root)
            for q in all_states(joint.vars):
                if bn_score(N, q).value != point.get(q, Fraction(0)):
                    bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and graphs == 18 and elapsed < 60
    record(4, ok, "BN from tree factor graph scores == composed scores, %d "
                  "graphs (3-5 systems) x every root x every state, %d "
                  "mismatches (%.1fs)" % (graphs, bad, elapsed))
    assert bad == 0
    assert graphs == 18
    assert elapsed < 60, elapsed


def test_criterion_5_polarized_example():
    x = Domain("pos", (0, 1, 2))  # 1 is "here"; 0 and 2 are one step away
    rel = {
        "Q1": [State({"x": 0}), State({"x": 2})],
        "Q2": [State({"x": 0}), State({"x": 2})],
    }
    pr = PolarizedRelation(rel, [({"Q1"}, "angel"), ({"Q2"}, "demon")])
    pi = {"Q1": Fraction(3, 5), "Q2": Fraction(2, 5)}
    not_p = lambda q: q["x"] != 2  # staying off the +1 cell
    got = polarized_score(pi, pr, not_p)
    ok = got == Fraction(3, 5)
    record(5, ok, "two-block angel/demon score == 3/5 (got %s)" % got)
    assert got == Fraction(3, 5)


EX3 = """
domain v4 = { 0, 1, 2, 3 }
domain bool = { F, T }
var x : v4
var v : v4
var y : v4
var rf : bool
var bk : bool
var f : bool
func psi : (v4, v4) -> v4 { (0,0) -> 0, (0,1) -> 1, (0,2) -> 2, (0,3) -> 3,
  (1,0) -> 1, (1,1) -> 2, (1,2) -> 3, (1,3) -> 0,
  (2,0) -> 2, (2,1) -> 3, (2,2) -> 0, (2,3) -> 1,
  (3,0) -> 3, (3,1) -> 0, (3,2) -> 1, (3,3) -> 2 }
func or2 : (bool, bool) -> bool { (F,F) -> F, (F,T) -> T, (T,F) -> T, (T,T) -> T }
func and2 : (bool, bool) -> bool { (F,F) -> F, (F,T) -> F, (T,F) -> F, (T,T) -> T }
func not1 : bool -> bool { F -> T, T -> F }
dist mu : v4 { 0 : 1/6, 1 : 1/3, 2 : 1/6, 3 : 1/3 }

|| x = %(c)d
|| v ~ mu
|| rf ~ Bernoulli(%(p)s)
|| bk = bk
|| f = and2(or2(rf, %(cf)s), not1(bk))
|| y = if f then psi(x, v) else x
"""

MU = {0: Fraction(1, 6), 1: Fraction(1, 3), 2: Fraction(1, 6), 3: Fraction(1, 3)}
YMAX = 2


def ex3_psi(x, v):
    return (x + v) % 4


def ex3_closed_form(c, cf, p):
    """Case analysis: the property needs the folded constant to clear ymax,
    the breaker unset (it is free, so the existential resolution may always
    unset it), the filter enabled, and the sampled correction to land at or
    below ymax."""
    if c <= YMAX:
        return Fraction(0)
    mass_psi = sum((m for v, m in MU.items() if ex3_psi(c, v) <= YMAX),
                   Fraction(0))
    return mass_psi if cf else p * mass_psi


def ex3_brute_force(c, cf, p):
    total = Fraction(0)
    for v, mv in MU.items():
        for rf, mr in ((True, p), (False, 1 - p)):
            hit = False
            for bk in (False, True):
                f = (rf or cf) and not bk
                y = ex3_psi(c, v) if f else c
                if c > YMAX and y <= YMAX:
                    hit = True
            if hit:
                total += mv * mr
    return total


def test_criterion_6_running_example():
    t0 = time.time()
    prop = lambda q: q["x"] > YMAX and q["y"] <= YMAX
    results = []
    for c, cf, p_txt, p in (
        (3, True, "1/10", Fraction(1, 10)),
        (3, False, "1/10", Fraction(1, 10)),
        (1, True, "1/10", Fraction(1, 10)),
        (3, False, "1/1000000", Fraction(1, 10 ** 6)),
    ):
        text = EX3 % {"c": c, "cf": "T" if cf else "F", "p": p_txt}
        S = elaborate_static(parse(text))
        got = outer(S, prop)
        closed = ex3_closed_form(c, cf, p)
        brute = ex3_brute_force(c, cf, p)
        results.append((got, closed, brute))
    ok = all(g == cl == br for g, cl, br in results)
    detail = "; ".join("got %s closed %s brute %s" % r for r in results)
    record(6, ok, "one-instant filter program: %s (%.1fs)"
           % (detail, time.time() - t0))
    for got, closed, brute in results:
        assert got == closed == brute


def test_criterion_7_spa_image():
    rng = random.Random(1007)
    t0 = time.time()
    bad_verdict = 0
    for trial in range(100):
        acts = ("a", "b", "c")[: rng.randint(2, 3)]
        P1 = rand_spa(rng, nq=rng.randint(2, 4), acts=acts)
        P2 = rand_spa(rng, nq=rng.randint(2, 4), acts=acts)
        v_spa = spa_simulates(P1, P2) is not None
        v_ma = simulates(spa_to_ma(P1, var="x1"),
                         spa_to_ma(P2, var="x2")) is not None
        if v_spa != v_ma:
            bad_verdict += 1
    bad_comp = 0
    for trial in range(100):
        P1 = rand_spa(rng, nq=2)
        P2 = rand_spa(rng, nq=2)
        lhs = spa_to_ma(spa_compose(P1, P2), var="xc")
        rhs = ma_compose(spa_to_ma(P1, var="x1"), spa_to_ma(P2, var="x2"))
        if not sim_equivalent(lhs, rhs):
            bad_comp += 1
    elapsed = time.time() - t0
    ok = bad_verdict == 0 and bad_comp == 0
    record(7, ok, "spa vs image verdicts on 100 pairs (%d mismatches); "
                  "image of product ~ product of images on 100 pairs "
                  "(%d failures) (%.1fs)" % (bad_verdict, bad_comp, elapsed))
    assert bad_verdict == 0
    assert bad_comp == 0


def test_criterion_8_ma_to_spa():
    rng = random.Random(1008)
    t0 = time.time()
    bad = 0
    positives = 0
    for trial in range(100):
        M1 = rand_ma(rng, "u")
        if trial % 3 == 0:
            # sub-automaton pairs guarantee a stock of positive verdicts
            sub = {k: v for k, v in M1.delta.items() if rng.random() < 0.7}
            M2 = MixedAutomaton(M1.alphabet, M1.vars, M1.initial, M1.delta)
            M1 = MixedAutomaton(M1.alphabet, M1.vars, M1.initial, sub)
        else:
            M2 = rand_ma(rng, "v")
        if simulates(M1, M2) is None:
            continue
        positives += 1
        if spa_simulates(ma_to_spa(M1), ma_to_spa(M2)) is None:
            bad += 1

    # product-of-images differs from image-of-product: the former keeps the
    # unconditioned product law, the latter the conditioned one
    dom = Domain("B", (0, 1))
    vx1 = [("x", dom), ("x1", dom)]
    vx2 = [("x", dom), ("x2", dom)]
    pi1 = {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 6),
           (1, 0): Fraction(1, 6), (1, 1): Fraction(1, 6)}
    pi2 = {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 3),
           (1, 0): Fraction(1, 6), (1, 1): Fraction(1, 6)}
    S1 = MixedSystem((list(pi1), pi1), vx1,
                     {o: [State({"x1": o[0], "x": o[1]})] for o in pi1})
    S2 = MixedSystem((list(pi2), pi2), vx2,
                     {o: [State({"x": o[0], "x2": o[1]})] for o in pi2})
    M1 = MixedAutomaton(("t",), vx1, {"x": 0, "x1": 0},
                        {(q, "t"): S1 for q in all_states(vx1)})
    M2 = MixedAutomaton(("t",), vx2, {"x": 0, "x2": 0},
                        {(q, "t"): S2 for q in all_states(vx2)})
    (d_prod,) = spa_compose(ma_to_spa(M1), ma_to_spa(M2)).dists(
        _pair(M1.initial, M2.initial), "t")
    (d_cond,) = ma_to_spa(ma_compose(M1, M2)).dists(
        State({"x": 0, "x1": 0, "x2": 0}), "t")
    mapped = {}
    for q, m in d_cond.items():
        qd = q.as_dict()
        mapped[_pair(State({"x1": qd["x1"], "x": qd["x"]}),
                     State({"x": qd["x"], "x2": qd["x2"]}))] = m
    matched = sum((m for k, m in d_prod.items() if k in mapped), Fraction(0))
    gap_ok = (matched == Fraction(5, 9)
              and {k: m / matched for k, m in d_prod.items() if k in mapped} == mapped
              and d_prod != mapped)
    elapsed = time.time() - t0
    ok = bad == 0 and positives >= 25 and gap_ok
    record(8, ok, "ma->spa kept %d/%d positive verdicts; fixed product "
                  "fixture: compatible mass 5/9, laws differ: %s (%.1fs)"
           % (positives - bad, positives, gap_ok, elapsed))
    assert bad == 0
    assert positives >= 25
    assert gap_ok


def test_criterion_9_pa_image():
    rng = random.Random(1009)
    t0 = time.time()
    positives = 0
    broken = 0
    for trial in range(100):
        P1 = rand_pa(rng)
        if trial % 3 == 0:
            extra = [(q, d) for q, d in rand_pa(rng).transitions
                     if q in P1.states]
            P2 = PA(P1.alphabet, P1.states, P1.initial,
                    list(P1.transitions) + extra)
        else:
            P2 = rand_pa(rng)
        if pa_simulates(P1, P2) is None:
            continue
        positives += 1
        if simulates(pa_to_ma(P1, act_var="a1", state_var="s1"),
                     pa_to_ma(P2, act_var="a2", state_var="s2")) is None:
            broken += 1

    # composition is not preserved: composing the images deadlocks on the
    # disjoint alphabets, embedding the scheduled composition does not
    Pd1 = PA(("a",), ("q0", "q1"), "q0", [("q0", {("a", "q1"): 1})])
    Pd2 = PA(("b",), ("r0",), "r0", [("r0", {("b", "r0"): 1})])
    E1 = ma_compose(pa_to_ma(Pd1, act_var="a1", state_var="s1"),
                    pa_to_ma(Pd2, act_var="a2", state_var="s2"))
    E2 = pa_to_ma(pa_compose(Pd1, Pd2, Fraction(1, 2)))
    fixture_ok = (simulates(E2, E1) is None
                  and simulates(E1, E2) is not None
                  and not sim_equivalent(E1, E2))
    elapsed = time.time() - t0
    ok = broken == 0 and positives >= 25 and fixture_ok
    record(9, ok, "pa->ma preserved %d/%d positive verdicts; composition "
                  "gap fixture holds: %s (%.1fs)"
           % (positives - broken, positives, fixture_ok, elapsed))
    assert broken == 0
    assert positives >= 25
    assert fixture_ok


def test_criterion_10_lifting():
    rng = random.Random(1010)
    t0 = time.time()
    bad_witness = 0
    bad_oracle = 0
    bad_invariance = 0
    positives = 0
    for _ in range(200):
        nv = rng.randint(1, 2)
        pool = [Var("x%d" % i, rand_domain(rng, "D%d" % i)) for i in range(nv)]
        S1 = rand_system_over(rng, pool, max_omega=5)
        S2 = rand_system_over(rng, pool, max_omega=5)
        states = list(all_states(pool))
        pairs = {(a, b) for a in states for b in states if rng.random() < 0.5}
        rho = lambda a, b: (a, b) in pairs
        w = lift_check(S1, S2, rho)
        if w is not None:
            positives += 1
            if not verify_weighting(S1, S2, rho, w):
                bad_witness += 1
        feasible = cut_feasible({o: S1.pi[o] for o in S1.omega},
                                {o: S2.pi[o] for o in S2.omega},
                                allowed_pairs(S1, S2, rho))
        if (w is not None) != feasible:
            bad_oracle += 1
        w2 = lift_check(equivalent_variant(S1, rng),
                        equivalent_variant(S2, rng), rho)
        if (w is not None) != (w2 is not None):
            bad_invariance += 1
    elapsed = time.time() - t0
    ok = bad_witness == bad_oracle == bad_invariance == 0 and positives >= 20
    record(10, ok, "200 lift triples: %d positives, %d witness failures, "
                   "%d disagreements with the cut oracle, %d equivalence-"
                   "invariance failures (%.1fs)"
           % (positives, bad_witness, bad_oracle, bad_invariance, elapsed))
    assert bad_witness == 0
    assert bad_oracle == 0
    assert bad_invariance == 0
    assert positives >= 20


def fixed_sampling_systems():
    """Ten handcrafted systems with assorted shapes: skewed weights, dead
    outcomes, nondeterministic rows, several domains."""
    bit = Domain("bit", (0, 1))
    tri = Domain("tri", (0, 1, 2))
    out = []

    def add(pi, rows, vars):
        rel = {o: [State(s) for s in row] for o, row in rows.items()}
        out.append(MixedSystem((list(pi), pi), vars, rel))

    add({"a": Fraction(1, 2), "b": Fraction(1, 2)},
        {"a": [{"x": 0}], "b": [{"x": 1}]}, [("x", bit)])
    add({"a": Fraction(1, 3), "b": Fraction(2, 3)},
        {"a": [{"x": 0}], "b": [{"x": 1}]}, [("x", bit)])
    add({"a": Fraction(1, 6), "b": Fraction(1, 3), "c": Fraction(1, 2)},
        {"a": [{"x": 0}], "b": [{"x": 1}], "c": [{"x": 2}]}, [("x", tri)])
    add({"a": Fraction(1, 2), "dead": Fraction(1, 4), "c": Fraction(1, 4)},
        {"a": [{"x": 0}], "dead": [], "c": [{"x": 2}]}, [("x", tri)])
    add({"a": Fraction(9, 10), "b": Fraction(1, 10)},
        {"a": [{"x": 0}, {"x": 1}], "b": [{"x": 2}]}, [("x", tri)])
    add({"a": Fraction(1, 1000), "b": Fraction(999, 1000)},
        {"a": [{"x": 0}], "b": [{"x": 1}]}, [("x", bit)])
    add({"a": Fraction(1, 4), "b": Fraction(1, 4), "c": Fraction(1, 4),
         "d": Fraction(1, 4)},
        {"a": [{"x": 0, "y": 0}], "b": [{"x": 0, "y": 1}],
         "c": [{"x": 1, "y": 0}], "d": [{"x": 1, "y": 1}]},
        [("x", bit), ("y", bit)])
    add({"a": Fraction(2, 7), "b": Fraction(5, 7)},
        {"a": [{"x": 0, "y": 0}, {"x": 1, "y": 1}], "b": [{"x": 1, "y": 0}]},
        [("x", bit), ("y", bit)])
    add({"a": Fraction(1, 2), "b": Fraction(3, 10), "c": Fraction(1, 5)},
        {"a": [{"x": 0}], "b": [{"x": 0}], "c": [{"x": 1}]}, [("x", bit)])
    add({"a": Fraction(5, 8), "dead": Fraction(1, 8), "c": Fraction(1, 8),
         "d": Fraction(1, 8)},
        {"a": [{"x": 1}], "dead": [], "c": [{"x": 0}, {"x": 2}],
         "d": [{"x": 2}]}, [("x", tri)])
    return out


def test_criterion_11_sampling_statistics():
    from scipy.stats import chi2

    t0 = time.time()
    draws = 10 ** 5
    crit_by_df = {}
    worst = []
    identical = True
    for idx, S in enumerate(fixed_sampling_systems()):
        pt = conditioned(S)
        support = [o for o in S.omega if pt.weights[o] > 0]

        def one_run(seed):
            rng = random.Random(seed)
            counts = dict.fromkeys(S.omega, 0)
            trace = []
            for _ in range(draws):
                o, q = sample(S, rng, resolver="uniform")
                counts[o] += 1
                trace.append((o, q.pairs))
            return counts, repr(trace)

        counts, blob1 = one_run(4242 + idx)
        _, blob2 = one_run(4242 + idx)
        if blob1 != blob2:
            identical = False
        assert all(counts[o] == 0 for o in S.omega if pt.weights[o] == 0)
        df = len(support) - 1
        if df == 0:
            continue
        stat = sum(
            (counts[o] - pt.weights[o] * draws) ** 2 / (pt.weights[o] * draws)
            for o in support
        )
        crit = crit_by_df.setdefault(df, chi2.ppf(1 - 0.001, df))
        worst.append((float(stat), float(crit)))
        assert stat < crit, (idx, float(stat), float(crit))
    elapsed = time.time() - t0
    ok = identical and all(s < c for s, c in worst) and elapsed < 60
    record(11, ok, "10 fixed systems x %d draws: chi-square below the 0.001 "
                   "critical value on all %d tested systems, seeded reruns "
                   "byte-identical: %s (%.1fs)"
           % (draws, len(worst), identical, elapsed))
    assert identical
    assert elapsed < 60, elapsed
