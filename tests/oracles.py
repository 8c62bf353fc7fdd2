"""Random model generators and independent oracles.

The oracles recompute every quantity from the raw fields (omega, pi, rel)
with plain dicts and loops, deliberately avoiding the library's own query
helpers, so that agreement between the two is evidence rather than a
tautology.  The transport oracle decides feasibility by the cut condition
(every subset of the left support must fit inside the mass of its allowed
neighbours) instead of the flow computation the library uses.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from rbmx import Domain, MixedSystem, State, Var
from rbmx.automata import MixedAutomaton
from rbmx.core import all_states
from rbmx.embeddings import PA, SPA
from rbmx.factorgraph import factor_graph

SYMS = ("red", "green", "blue")


def rand_domain(rng, name, max_size=3):
    roll = rng.random()
    if roll < 0.15:
        return Domain(name, (False, True))
    if roll < 0.30:
        return Domain(name, SYMS[: rng.randint(2, max_size)])
    return Domain(name, tuple(range(rng.randint(1, max_size))))


def rand_weights(rng, omega, allow_zero=True):
    lo = 0 if allow_zero else 1
    raw = [rng.randint(lo, 4) for _ in omega]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return {o: Fraction(a, total) for o, a in zip(omega, raw)}


def rand_system_over(rng, vars, max_omega=6, allow_empty_rows=True,
                     allow_zero_weights=True):
    states = list(all_states(vars))
    n = rng.randint(1, max_omega)
    omega = ["o%d" % i for i in range(n)]
    pi = rand_weights(rng, omega, allow_zero=allow_zero_weights)
    rel = {}
    for o in omega:
        if allow_empty_rows and rng.random() < 0.15:
            rel[o] = []
        else:
            k = min(len(states), rng.randint(1, 3))
            rel[o] = rng.sample(states, k)
    if not any(pi[o] > 0 and rel[o] for o in omega):
        pick = next(o for o in omega if pi[o] > 0)
        rel[pick] = [rng.choice(states)]
    return MixedSystem((omega, pi), vars, rel)


def rand_system(rng, max_omega=6, max_vars=3, dom_max=3):
    nv = rng.randint(1, max_vars)
    vars = [Var("x%d" % i, rand_domain(rng, "D%d" % i, dom_max)) for i in range(nv)]
    return rand_system_over(rng, vars, max_omega=max_omega)


# --- naive scoring -----------------------------------------------------------


def naive_conditioned(S):
    """{outcome: renormalized weight}, or None when nothing is consistent."""
    ok = {o for o in S.omega if len(S.rel[o]) > 0}
    z = sum((S.pi[o] for o in ok), Fraction(0))
    if z == 0:
        return None
    return {o: (S.pi[o] / z if o in ok else Fraction(0)) for o in S.omega}


def naive_outer(S, pred):
    pt = naive_conditioned(S)
    total = Fraction(0)
    for o in S.omega:
        if any(pred(q) for q in S.rel[o]):
            total += pt[o]
    return total


def naive_inner(S, states):
    pt = naive_conditioned(S)
    need = set(states)
    total = Fraction(0)
    for o in S.omega:
        if need <= set(S.rel[o]):
            total += pt[o]
    return total


def naive_likelihood(S, pred):
    # max over row-classes, not raw outcomes: duplicate-row outcomes pool
    # their mass, so equal presentations of one system answer the same
    pt = naive_conditioned(S)
    classes = {}
    for o in S.omega:
        if pt[o] > 0:
            key = frozenset(S.rel[o])
            classes[key] = classes.get(key, Fraction(0)) + pt[o]
    best = Fraction(0)
    for row, w in classes.items():
        if w > best and any(pred(q) for q in row):
            best = w
    return best


def naive_point_outer(S, q):
    """Conditioned mass of the outcomes whose row contains exactly q."""
    return naive_outer(S, lambda s: s == q)


# --- composition without the library ------------------------------------------


def join_states(q1, q2):
    d = q1.as_dict()
    for k, v in q2.items():
        if k in d and d[k] != v:
            return None
        d[k] = v
    return State(d)


def signature(S):
    """Multiset of (mass, row-as-set) over positive-mass row classes; two
    systems are equivalent exactly when their signatures match."""
    acc = {}
    for o in S.omega:
        key = frozenset(S.rel[o])
        acc[key] = acc.get(key, Fraction(0)) + S.pi[o]
    return Counter((m, k) for k, m in acc.items() if m > 0)


def naive_compose_sig(S1, S2):
    """signature() of the parallel composition, computed directly."""
    acc = {}
    for o1 in S1.omega:
        for o2 in S2.omega:
            row = set()
            for q1 in S1.rel[o1]:
                for q2 in S2.rel[o2]:
                    j = join_states(q1, q2)
                    if j is not None:
                        row.add(j)
            key = frozenset(row)
            acc[key] = acc.get(key, Fraction(0)) + S1.pi[o1] * S2.pi[o2]
    return Counter((m, k) for k, m in acc.items() if m > 0)


def naive_marginal_sig(S, names):
    keep = set(names)
    acc = {}
    for o in S.omega:
        key = frozenset(q.restrict(keep) for q in S.rel[o])
        acc[key] = acc.get(key, Fraction(0)) + S.pi[o]
    return Counter((m, k) for k, m in acc.items() if m > 0)


# --- equivalent variants -------------------------------------------------------


def _fresh(base, used):
    s = base
    n = 2
    while s in used:
        s = "%s#%d" % (base, n)
        n += 1
    used.add(s)
    return s


def relabeled_copy(S, rng):
    """Same system under a permutation and renaming of the outcome ids."""
    order = list(S.omega)
    rng.shuffle(order)
    used = set()
    names = {o: _fresh("r%d" % i, used) for i, o in enumerate(order)}
    omega = [names[o] for o in order]
    pi = {names[o]: S.pi[o] for o in S.omega}
    rel = {names[o]: list(S.rel[o]) for o in S.omega}
    return MixedSystem((omega, pi), S.vars, rel)


def split_copy(S, rng):
    """One positive-mass outcome split in two, both keeping its row."""
    target = rng.choice([o for o in S.omega if S.pi[o] > 0])
    t = Fraction(rng.randint(1, 3), 4)
    used = set(str(o) for o in S.omega)
    a = _fresh(str(target) + "a", used)
    b = _fresh(str(target) + "b", used)
    omega, pi, rel = [], {}, {}
    for o in S.omega:
        if o == target:
            omega += [a, b]
            pi[a] = S.pi[o] * t
            pi[b] = S.pi[o] * (1 - t)
            rel[a] = list(S.rel[o])
            rel[b] = list(S.rel[o])
        else:
            omega.append(o)
            pi[o] = S.pi[o]
            rel[o] = list(S.rel[o])
    return MixedSystem((omega, pi), S.vars, rel)


def equivalent_variant(S, rng):
    S2 = relabeled_copy(S, rng)
    if rng.random() < 0.7:
        S2 = split_copy(S2, rng)
    return S2


# --- transport feasibility by the cut condition --------------------------------


def allowed_pairs(S1, S2, rel):
    """Outcome pairs a weighting may couple: every state of the left row has
    a related state in the right row.  Mirrors the lifting definition."""
    out = []
    for o1 in S1.omega:
        if S1.pi[o1] <= 0:
            continue
        for o2 in S2.omega:
            if S2.pi[o2] <= 0:
                continue
            if all(any(rel(q1, q2) for q2 in S2.rel[o2]) for q1 in S1.rel[o1]):
                out.append((o1, o2))
    return out


def cut_feasible(mu1, mu2, allowed):
    """Transport feasibility decided subset-by-subset: a coupling with the
    given marginals supported on ``allowed`` exists iff the totals agree and
    no subset of the left support outweighs its allowed neighbours."""
    left = [a for a, w in mu1.items() if w > 0]
    right = {b for b, w in mu2.items() if w > 0}
    t1 = sum((mu1[a] for a in left), Fraction(0))
    t2 = sum((mu2[b] for b in right), Fraction(0))
    if t1 != t2:
        return False
    nbr = {a: frozenset(b for (x, b) in allowed if x == a and b in right)
           for a in left}
    for r in range(len(left) + 1):
        for A in itertools.combinations(left, r):
            reach = frozenset().union(*(nbr[a] for a in A)) if A else frozenset()
            lmass = sum((mu1[a] for a in A), Fraction(0))
            rmass = sum((mu2[b] for b in reach), Fraction(0))
            if lmass > rmass:
                return False
    return True


# --- random automata and probabilistic automata --------------------------------


def rand_dist(rng, pool, kmax=2):
    supp = rng.sample(pool, rng.randint(1, min(kmax, len(pool))))
    cuts = sorted(rng.randint(1, 5) for _ in supp[:-1])
    total = 6
    ws = []
    prev = 0
    for c in cuts:
        ws.append(Fraction(c - prev, total))
        prev = c
    ws.append(Fraction(total - prev, total))
    return {s: w for s, w in zip(supp, ws) if w > 0}


def rand_spa(rng, nq=3, acts=("a", "b"), max_dists=2):
    states = ["q%d" % i for i in range(nq)]
    transitions = []
    for q in states:
        for a in acts:
            for _ in range(rng.randint(0, max_dists)):
                transitions.append((q, a, rand_dist(rng, states)))
    return SPA(acts, states, states[0], transitions)


def rand_pa(rng, nq=3, acts=("a", "b")):
    states = ["q%d" % i for i in range(nq)]
    pool = [(a, s) for a in acts for s in states]
    transitions = []
    for q in states:
        for _ in range(rng.randint(0, 2)):
            transitions.append((q, rand_dist(rng, pool, kmax=3)))
    return PA(acts, states, states[0], transitions)


def rand_ma(rng, name):
    dom = Domain("D", (0, 1, 2))
    vars = [(name, dom)]
    delta = {}
    for v in dom.values:
        for a in ("a", "b"):
            if rng.random() < 0.55:
                continue
            n = rng.randint(1, 3)
            omega = list(range(n))
            weights = {}
            rel = {}
            cuts = sorted(rng.randint(1, 5) for _ in range(n - 1))
            prev = 0
            for i, c in enumerate(cuts + [6]):
                weights[i] = Fraction(c - prev, 6)
                prev = c
            for o in omega:
                rel[o] = [State({name: rng.choice(dom.values)})
                          for _ in range(rng.randint(0, 2))]
            delta[(State({name: v}), a)] = MixedSystem((omega, weights), vars, rel)
    return MixedAutomaton(("a", "b"), vars, {name: 0}, delta)


def sim_equivalent_not_bisimilar():
    """Two SPAs that simulate each other but are not bisimilar.  P1 moves on
    a to q1 or to q2; q1 can do b and c, q2 only b.  P2 moves on a to p1,
    which can do b and c.  Every b and c move ends in the deadlock d, and
    every distribution is Dirac.  p1 simulates both q1 and q2, and q1
    simulates p1, but q2 cannot answer p1's c."""
    acts = ("a", "b", "c")
    P1 = SPA(acts, ("q0", "q1", "q2", "d"), "q0",
             [("q0", "a", {"q1": 1}), ("q0", "a", {"q2": 1}),
              ("q1", "b", {"d": 1}), ("q1", "c", {"d": 1}),
              ("q2", "b", {"d": 1})])
    P2 = SPA(acts, ("p0", "p1", "d"), "p0",
             [("p0", "a", {"p1": 1}),
              ("p1", "b", {"d": 1}), ("p1", "c", {"d": 1})])
    return P1, P2


# --- greatest simulations, one pair at a time ------------------------------------


def naive_greatest(pairs, ok):
    """The largest R within ``pairs`` whose every pair passes ok(p, q, R),
    found by removing one failing pair at a time, in repr order, until no
    pair fails.  Matching is monotone, so the removal order cannot matter."""
    R = set(pairs)
    while True:
        bad = next((pq for pq in sorted(R, key=repr) if not ok(pq[0], pq[1], R)),
                   None)
        if bad is None:
            return R
        R.remove(bad)


def both_ways(ok, ok_back):
    """ok for a bisimulation: the pair passes ok against R and the reversed
    pair passes ok_back against the inverse of R."""
    return lambda p, q, R: ok(p, q, R) and ok_back(q, p, {(b, a) for a, b in R})


def ma_ok(M1, M2):
    """Every transition-table entry of M1 at q1 has an M2 entry at q2 on the
    same action whose raw weights transport across the allowed outcome
    pairs (cut condition).  Reads the materialized tables directly."""

    def ok(q1, q2, R):
        rel = lambda a, b: (a, b) in R  # noqa: E731
        for a in M1.alphabet:
            T1 = M1.delta.get((q1, a))
            if T1 is None:
                continue
            T2 = M2.delta.get((q2, a))
            if T2 is None or not cut_feasible(
                    dict(T1.pi), dict(T2.pi), allowed_pairs(T1, T2, rel)):
                return False
        return True

    return ok


def spa_ok(P1, P2):
    """Every (q1, a, μ1) has some (q2, a, μ2) with a coupling inside R."""

    def ok(q1, q2, R):
        for p, a, d1 in P1.transitions:
            if p != q1:
                continue
            cands = [d2 for r, b, d2 in P2.transitions if r == q2 and b == a]
            if not any(cut_feasible(d1, d2, [(s1, s2) for s1 in d1 for s2 in d2
                                             if (s1, s2) in R])
                       for d2 in cands):
                return False
        return True

    return ok


def pa_ok(P1, P2):
    """Every (q1, μ1) has some (q2, μ2) with a coupling that pairs equal
    actions and states related by R."""

    def ok(q1, q2, R):
        for p, d1 in P1.transitions:
            if p != q1:
                continue
            cands = [d2 for r, d2 in P2.transitions if r == q2]
            if not any(cut_feasible(d1, d2, [(x1, x2) for x1 in d1 for x2 in d2
                                             if x1[0] == x2[0]
                                             and (x1[1], x2[1]) in R])
                       for d2 in cands):
                return False
        return True

    return ok


# --- tree-shaped factor graphs ---------------------------------------------------


def rand_tree_fg(rng, k):
    """k systems whose sharing pattern is a random tree: system i>0 shares
    one fresh binary variable with a random earlier system, and every system
    carries one private binary variable of its own."""
    dom = Domain("tb", (0, 1))
    sysvars = [[Var("p%d" % i, dom)] for i in range(k)]
    for i in range(1, k):
        j = rng.randrange(i)
        v = Var("e%d_%d" % (j, i), dom)
        sysvars[j].append(v)
        sysvars[i].append(v)
    systems = [
        rand_system_over(rng, vs, max_omega=4, allow_empty_rows=False,
                         allow_zero_weights=False)
        for vs in sysvars
    ]
    return factor_graph(systems, ["S%d" % (i + 1) for i in range(k)])
