"""Random model generators and independent oracles.

The oracles recompute every quantity from the raw fields (omega, pi, rel)
with plain dicts and loops, deliberately avoiding the library's own query
helpers, so that agreement between the two is evidence rather than a
tautology.  The transport oracle decides feasibility by the cut condition
(every subset of the left support must fit inside the mass of its allowed
neighbours) instead of the flow computation the library uses.

Algorithms the library replaced are kept here as references too
(full_graft, whole_run, outer_bn_score, apply_table, round_sample,
dfs_cycle, probe_greatest, allowed_pairs, text_rat, fraction_exact_weights,
enumerated_equation).  They may call the library's query helpers, which
the naive oracles check.
"""

import itertools
import random
import reprlib
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from rbmx import Domain, MixedSystem, State, Var, core
from rbmx.automata import MixedAutomaton, lift_check
from rbmx.bayes import BayesianNetwork, MixedKernel, Score
from rbmx.core import (
    all_states,
    compose,
    conditioned,
    consistency,
    consistency_weight,
    norm_vars,
    outer,
    sample,
)
from rbmx.embeddings import PA, SPA
from rbmx.errors import (
    InconsistentSystem,
    MalformedSystem,
    MissingInit,
    MissingObservation,
    NoTransition,
    NotIncremental,
    RbmxError,
    VariableSetMismatch,
)
from rbmx.factorgraph import factor_graph
from rbmx.transport import Masses, coupling
from rbmx.rblang.elaborate import (
    _same_value,
    _var,
    active_leaves,
    elaborate_dynamic,
    eval_expr,
    observe_point,
    pre_name,
    program_guards,
)
from rbmx.rblang.run import ProgramRun
from rbmx.rblang.syntax import SObserve, expr_vars

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


def full_graft(base, K):
    """A system grafted with a kernel on its inputs, as the full product: one
    independent draw from K at every input cell for every base outcome, each
    row state joining the row of its own cell's draw."""
    cells = list(all_states(K.in_vars))
    cell_index = {c: i for i, c in enumerate(cells)}
    cell_sys = [K.apply(c) for c in cells]
    in_names = list(K.in_names)
    names = set(base.var_names)
    vars = list(base.vars) + [v for v in K.out_vars if v.name not in names]

    omega, weights, rel = [], {}, {}
    for combo in itertools.product(base.omega, *(S.omega for S in cell_sys)):
        mass = base.pi[combo[0]]
        for S, o in zip(cell_sys, combo[1:]):
            mass *= S.pi[o]
        omega.append(combo)
        weights[combo] = mass
        row = []
        for qb in base.rel[combo[0]]:
            idx = cell_index[qb.restrict(in_names)]
            for qc in cell_sys[idx].rel[combo[1 + idx]]:
                joined = join_states(qb, qc)
                if joined is not None:
                    row.append(joined)
        rel[combo] = row
    return MixedSystem((omega, weights), vars, rel)


def recheck_builds(monkeypatch):
    """Patch core._system, the unchecked builder, in every rbmx module that
    binds it, so that each result is also rebuilt by the public, checking
    MixedSystem from the same weights, variables and rows, and must equal
    it: omega order, weights, variables and every row tuple.  Rows must be
    free of repeats (score tables rely on that), and so must the rows given
    without dedupe.  Returns the list of systems built, for the caller to
    see that the patch was reached."""
    built = []
    build = core._system

    def rechecked(prob, vars, rows, dedupe=False):
        S = build(prob, vars, rows, dedupe)
        ref = MixedSystem(dict(prob.weights), vars,
                          [(o, q) for o in prob.omega for q in rows[o]])
        assert type(S.vars) is tuple and S.vars == ref.vars
        assert S.omega == ref.omega
        assert list(S.pi.items()) == list(ref.pi.items())
        assert list(S.rel.items()) == list(ref.rel.items())
        assert all(len(set(row)) == len(row) for row in S.rel.values())
        if not dedupe:
            assert all(len(set(rows[o])) == len(rows[o]) for o in prob.omega)
        built.append(S)
        return S

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "rbmx" and getattr(mod, "_system", None) is build:
            monkeypatch.setattr(mod, "_system", rechecked)
    return built


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


# --- exact weights through Fraction's parser and Fraction sums ----------------


def text_rat(x):
    """core.rat's general path for any text: a refusal of code points past
    127, of "_" and of surrounding whitespace, number_text_problem on each
    side of a "/", then Fraction's own parser.  The reference for rat's
    integer path."""
    if any(ord(c) > 127 for c in x) or "_" in x or x != x.strip():
        raise MalformedSystem("not a rational: %s (only ASCII text with no '_' and "
                              "no surrounding space is read)" % reprlib.repr(x))
    for number in x.split("/"):
        problem = core.number_text_problem(number)
        if problem is not None:
            raise MalformedSystem("not a rational: %s (%s)" % (reprlib.repr(x), problem))
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedSystem("not a rational: %s (%s)" % (reprlib.repr(x), exc))


def fraction_exact_weights(keys, weights):
    """core.exact_weights with its checks in Fractions and its total summed
    as one: the reference for its integer total."""
    w = {}
    for k in keys:
        if k not in weights:
            raise MalformedSystem("missing weight for outcome %r" % (k,))
        f = core.rat(weights[k])
        if f < 0:
            raise MalformedSystem("negative weight %s for outcome %r"
                                  % (core.describe_rat(f), k))
        w[k] = f
    for k in weights:
        if k not in w:
            raise MalformedSystem("weight for unknown outcome %r" % (k,))
    total = sum(w.values(), Fraction(0))
    if total != 1:
        raise MalformedSystem("weights sum to %s, not 1" % core.describe_rat(total))
    return w


def loop_sampler_tables(S):
    """core._sampler_tables as a hand-written lcm loop over the conditioned
    weights: (common denominator, positive-weight outcomes in omega order,
    running sums of their numerators over that denominator)."""
    pt = core.conditioned(S)
    ids = [o for o in pt.omega if pt.weights[o] > 0]
    denom = lcm(*(pt.weights[o].denominator for o in ids))
    acc = 0
    cum = []
    for o in ids:
        w = pt.weights[o]
        acc += w.numerator * (denom // w.denominator)
        cum.append(acc)
    return denom, ids, cum


# --- transport feasibility by the cut condition --------------------------------


def allowed_pairs(S1, S2, rel):
    """Outcome pairs a weighting may couple: every state of the left row has
    a related state in the right row.  Mirrors the lifting definition, with
    all(any(...)) over the rows of the positive-mass outcomes in outcome
    order: the rule lift_check followed before it compiled each system's
    rows, kept as the reference for its allowed set and for the order of
    its calls to rel."""
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


# --- the State-level simulation engine, kept as a reference ----------------------


class _Probe:
    """R as one check sees it: ``pair in probe`` answers membership in R and
    records each pair it finds there in ``found``.  With ``flip`` the check
    runs against R⁻¹, so a pair is reversed before it is looked up and
    recorded as the pair of R it stands for."""

    __slots__ = ("R", "found", "flip")

    def __init__(self, R, found, flip):
        self.R, self.found, self.flip = R, found, flip

    def __contains__(self, pair):
        if self.flip:
            pair = (pair[1], pair[0])
        if pair in self.R:
            self.found[pair] = None
            return True
        return False


def probe_refine(pairs, initial, match, back=None, exact=None):
    """The worklist fixpoint over a set of (state, state) tuples that
    automata.refine replaced: the greatest subset R of ``pairs`` whose every
    pair passes match(p, q, R) and, when given, back(q, p, R⁻¹), with R seen
    through a _Probe; None when R does not hold ``initial``.  With
    ``exact`` = (match, back, inexact), a second stage runs from the first
    stage's fixpoint: it rechecks the pairs for which inexact(p, q) holds,
    in the order of ``pairs``, then refines on through the same index.
    Same rounds, same recheck rule and same recheck order as the numbered
    loop."""
    R = set(pairs)
    users = {}
    todo = pairs
    while initial in R:
        removed = []
        for pair in todo:
            p, q = pair
            found = {}
            if match(p, q, _Probe(R, found, False)) and (
                    back is None or back(q, p, _Probe(R, found, True))):
                for d in found:
                    users.setdefault(d, []).append(pair)
            else:
                removed.append(pair)
        if not removed:
            if exact is None:
                return R
            match, back, inexact = exact
            exact = None
            todo = [pair for pair in pairs if pair in R and inexact(*pair)]
            continue
        R.difference_update(removed)
        todo = dict.fromkeys(c for d in removed for c in users.pop(d, ()) if c in R)
    return None


class ProbeView(NamedTuple):
    """A View over the states themselves: lifts(t1, t2, R) and covers(t1,
    t2, R) read R, a set of state pairs, only with ``in``; point(t) says
    whether target t has at most one key of positive mass."""

    states: object
    initial: object
    moves: object
    targets: object
    lifts: object
    covers: object
    point: object


def _probe_couple(mu1, mu2, ok):
    return coupling(mu1, mu2, [(x, y) for x in mu1.mass for y in mu2.mass if ok(x, y)])


def probe_covered(mu1, mu2, allowed):
    """The cover condition on two {key: Fraction} measures, in Fractions and
    sets: equal totals, and every positive key of either side on a pair of
    ``allowed``."""
    left = {a for a, w in mu1.items() if w > 0}
    right = {b for b, w in mu2.items() if w > 0}
    return (sum(mu1.values(), Fraction(0)) == sum(mu2.values(), Fraction(0))
            and left <= {a for a, b in allowed if b in right}
            and right <= {b for a, b in allowed if a in left})


def _probe_fractions(m):
    return {k: Fraction(w, m.scale) for k, w in m.mass.items()}


def probe_ma_view(M):
    Q = M.reachable()
    if M.initial not in set(Q):
        Q = [M.initial] + Q
    index = {}

    def out(q):
        got = index.get(q)
        if got is None:
            ms = []
            for a in M.alphabet:
                T = M.transition(q, a)
                if T is not None:
                    ms.append((a, T))
            got = index[q] = (ms, {a: (T,) for a, T in ms})
        return got

    def lifts(T1, T2, R):
        return lift_check(T1, T2, lambda q1, q2: (q1, q2) in R) is not None

    def covers(T1, T2, R):
        allowed = allowed_pairs(T1, T2, lambda q1, q2: (q1, q2) in R)
        return probe_covered(dict(T1.pi), dict(T2.pi), allowed)

    def point(T):
        return sum(1 for o in T.omega if T.pi[o] > 0) <= 1

    return ProbeView(Q, M.initial, lambda q: out(q)[0],
                     lambda q, a: out(q)[1].get(a, ()), lifts, covers, point)


def _probe_prob_view(P, label, ok):
    moves, targets = {}, {}
    for t in P.transitions:
        a, m = label(t), Masses(t[-1])
        moves.setdefault(t[0], []).append((a, m))
        targets.setdefault((t[0], a), []).append(m)

    def lifts(d1, d2, R):
        return _probe_couple(d1, d2, lambda x1, x2: ok(x1, x2, R)) is not None

    def covers(d1, d2, R):
        allowed = [(x1, x2) for x1 in d1.mass for x2 in d2.mass if ok(x1, x2, R)]
        return probe_covered(_probe_fractions(d1), _probe_fractions(d2), allowed)

    return ProbeView(P.states, P.initial, lambda q: moves.get(q, ()),
                     lambda q, a: targets.get((q, a), ()), lifts, covers,
                     lambda d: len(d.mass) <= 1)


def probe_spa_view(P):
    return _probe_prob_view(P, lambda t: t[1], lambda s1, s2, R: (s1, s2) in R)


def probe_pa_view(P):
    return _probe_prob_view(P, lambda t: None,
                            lambda x1, x2, R: x1[0] == x2[0] and (x1[1], x2[1]) in R)


PROBE_VIEWS = {"ma": probe_ma_view, "spa": probe_spa_view, "pa": probe_pa_view}


def probe_greatest(kind, X1, X2, bisim=False):
    """The greatest simulation (bisimulation) of X1 by X2, automata of kind
    "ma", "spa" or "pa", by the State-level engine the numbered one
    replaced, in automata.greatest's two stages: cover matching to its
    fixpoint, then exact matching from the pairs with a move whose target
    is not a point against a state with a target that is not a point on
    its label; returns (R or None, {"match": calls, "lift": calls, "cover":
    calls})."""
    work = {"match": 0, "lift": 0, "cover": 0}

    def counted(key, f):
        def g(*args):
            work[key] += 1
            return f(*args)
        return g

    V1, V2 = (PROBE_VIEWS[kind](X) for X in (X1, X2))
    V1, V2 = (V._replace(lifts=counted("lift", V.lifts), covers=counted("cover", V.covers))
              for V in (V1, V2))

    def exact(V):
        return lambda t1, t2, R: (V.covers(t1, t2, R) if V.point(t1) or V.point(t2)
                                  else V.lifts(t1, t2, R))

    def matcher(A, B, lift):
        return counted("match", lambda q1, q2, R: all(
            any(lift(t1, t2, R) for t2 in B.targets(q2, a)) for a, t1 in A.moves(q1)))

    def spread(V, q):
        return {a for a, t in V.moves(q) if not V.point(t)}

    def inexact(q1, q2):
        return bool(spread(V1, q1) & spread(V2, q2))

    pairs = [(q1, q2) for q1 in V1.states for q2 in V2.states]
    cover_back = matcher(V2, V1, V2.covers) if bisim else None
    back = matcher(V2, V1, exact(V2)) if bisim else None
    R = probe_refine(pairs, (V1.initial, V2.initial), matcher(V1, V2, V1.covers), cover_back,
                     (matcher(V1, V2, exact(V1)), back, inexact))
    return R, work


def rand_ma_fragment(rng):
    """A mixed automaton over two variables u and v whose initial state
    pins u alone, with transitions from that partial state and from total
    states, as program fragments have."""
    dom = Domain("D", (0, 1))
    vars = [("u", dom), ("v", dom)]
    states = [State({"u": 0})] + list(all_states(norm_vars(vars)))
    delta = {}
    for q in states:
        for a in ("a", "b"):
            if rng.random() < 0.4:
                continue
            n = rng.randint(1, 3)
            weights = rand_dist(rng, list(range(n)), kmax=n)
            rel = {o: [State({"u": rng.choice((0, 1)), "v": rng.choice((0, 1))})
                       for _ in range(rng.randint(0, 2))] for o in weights}
            delta[(q, a)] = MixedSystem(weights, vars, rel)
    return MixedAutomaton(("a", "b"), vars, {"u": 0}, delta)


# --- network scores -------------------------------------------------------------


def outer_bn_score(N, q):
    """bn_score without compiled tables: per kernel, build the in- and
    out-states, apply the kernel, and take the outer probability of the
    out-state, as bn_score did before it read per-input tables."""
    if not isinstance(q, State):
        q = State(q)
    if set(q.names) != set(N.var_names):
        raise VariableSetMismatch(
            "state covers %r, network has %r" % (list(q.names), list(N.var_names))
        )
    factors = []
    bad = None
    for K in N.kernels:
        q_in = State({n: q[n] for n in K.in_names})
        q_out = State({n: q[n] for n in K.out_names})
        S = K.apply(q_in)
        flag, _ = consistency(S)
        if not flag:
            factors.append((K.name, None))
            if bad is None:
                bad = K
            continue
        factors.append((K.name, outer(S, [q_out])))

    value = Fraction(1)
    for _, f in factors:
        if f is not None:
            value *= f
    if bad is not None and value != 0:
        raise InconsistentSystem(
            "kernel %s is inconsistent at input %r" % (bad.name, q), kernel=bad.name
        )
    if bad is not None:
        value = Fraction(0)
    return Score(value, tuple(factors))


def apply_table(K, in_values):
    """The score table of K at in_values as MixedKernel.score_table once
    built every table: from apply's system at that input, None when it is
    inconsistent, else each row state's value tuple mapped to the sum of
    the conditioned weights of the outcomes admitting it, as (mass, its
    numerator, its denominator)."""
    S = K.apply(State(zip(K.in_names, in_values)))
    if not consistency(S)[0]:
        return None
    weights = conditioned(S).weights
    masses = {}
    for o, row in S.rel.items():
        for q in row:
            out = tuple(v for _, v in q.pairs)
            masses[out] = masses.get(out, 0) + weights[o]
    return {out: (f, f.numerator, f.denominator) for out, f in masses.items()}


def score_outcome(score, N, q):
    """What score(N, q) gives: the Score with its repr, which tells a
    Fraction factor from an int, or the error's type, kernel and message."""
    try:
        sc = score(N, q)
    except RbmxError as exc:
        return type(exc), exc.context.get("kernel"), str(exc)
    return sc, repr(sc)


def off_domain_states(N):
    """One full state per variable, with that variable's value outside its
    domain and every other value the first of its domain."""
    first = {v.name: v.domain.values[0] for v in N.vars}
    for name in N.var_names:
        yield State(dict(first, **{name: "off"}))


# --- network order ----------------------------------------------------------------


def round_sample(N, init, rng, resolver="lex"):
    """bn_sample by rounds found afresh: each round rescans the pending
    kernels that output something and runs, in name order, those whose
    in_set is assigned, as bn_sample did before it read N.order()."""
    if not isinstance(init, State):
        init = State(init)
    need = set(N.min_vars())
    got = set(init.names)
    if got != need:
        raise MissingInit(
            "init must cover exactly %r, got %r" % (sorted(need), sorted(got))
        )

    assigned = init.as_dict()
    pending = [K for K in N.kernels if K.out_names]
    while pending:
        ready = [K for K in pending if N.in_set(K) <= set(assigned)]
        if not ready:
            raise NotIncremental(
                "no runnable kernel among %r with assigned %r"
                % ([K.name for K in pending], sorted(assigned))
            )
        ready.sort(key=lambda K: K.name)
        before = len(assigned)
        for K in ready:
            q_in = State({n: assigned[n] for n in K.in_names})
            S = K.apply(q_in)
            try:
                _, q_out = sample(S, rng, resolver)
            except InconsistentSystem:
                raise InconsistentSystem(
                    "kernel %s is inconsistent at input %r" % (K.name, q_in),
                    kernel=K.name,
                )
            assigned.update(q_out.as_dict())
            pending.remove(K)
        if len(assigned) == before:
            raise NotIncremental(
                "kernels %r assigned no new variable" % [K.name for K in ready]
            )
    return State(assigned)


def dfs_cycle(N):
    """Whether the bipartite graph of N, x→K for x in in_set(K) and K→x
    for x in out(K), has a cycle, by a three-colour depth-first search, as
    bn_validate decided before it read N.order()."""
    succ = {}
    for K in N.kernels:
        succ[("k", K.name)] = [("x", x) for x in K.out_names]
        for x in N.in_set(K):
            succ.setdefault(("x", x), []).append(("k", K.name))
    for x in N.var_names:
        succ.setdefault(("x", x), [])

    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in succ}

    def reaches_cycle(root):
        color[root] = GREY
        stack = [(root, iter(succ[root]))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
                c = color.get(w, WHITE)
                if c == GREY:
                    return True
                if c == WHITE:
                    color[w] = GREY
                    stack.append((w, iter(succ[w])))
                    break
            else:
                color[v] = BLACK
                stack.pop()
        return False

    return any(color[v] == WHITE and reaches_cycle(v) for v in list(succ))


def rand_wiring(rng, k):
    """k kernels wired at random over the binary variables v0..v(k+1):
    each outputs up to two of them and reads up to two others, so two
    kernels may output one variable and reads may close cycles; about one
    kernel in three gets extra inputs, which may name the variable "ghost"
    of no kernel.  The kernels' systems are never built."""
    dom = Domain("wb", (0, 1))
    pool = ["v%d" % i for i in range(k + 2)]
    kernels = []
    extra = {}
    for i in range(k):
        names = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        cut = rng.randint(0, min(2, len(names)))
        outs, ins = names[:cut], names[cut:cut + 2]
        kernels.append(MixedKernel([Var(n, dom) for n in ins], [Var(n, dom) for n in outs],
                                   lambda q: None, name="K%d" % i))
        if rng.random() < 0.35:
            extra["K%d" % i] = set(rng.sample(pool + ["ghost"], rng.randint(1, 2)))
    return BayesianNetwork(kernels, extra_in=extra)


def rand_inconsistent_over(rng, vars):
    """A system with no consistent mass: no outcome admits a state, or only
    zero-weight outcomes do."""
    if rng.random() < 0.5:
        return MixedSystem({"o": Fraction(1)}, vars, {"o": []})
    states = list(all_states(vars))
    return MixedSystem({"a": Fraction(1), "b": Fraction(0)}, vars,
                       {"a": [], "b": rng.sample(states, min(2, len(states)))})


def rand_network(rng, k):
    """k table kernels: kernel i outputs up to two fresh variables and
    reads up to two variables that earlier kernels output; one that outputs
    none is a check on its inputs.  Its system at each input may have rows
    of several states, zero-weight outcomes and empty rows; about one input
    in six gets an inconsistent system."""
    made = []
    kernels = []
    for i in range(k):
        ins = rng.sample(made, rng.randint(0, min(2, len(made))))
        outs = [Var("v%d_%d" % (i, j), rand_domain(rng, "D%d_%d" % (i, j)))
                for j in range(rng.choice((0, 1, 1, 2)))]
        table = {}
        for q in all_states(ins):
            if rng.random() < 0.17:
                table[q] = rand_inconsistent_over(rng, outs)
            else:
                table[q] = rand_system_over(rng, outs, max_omega=4)
        kernels.append(MixedKernel(ins, outs, table, name="K%d" % i))
        made += outs
    return BayesianNetwork(kernels)


def chain(k, seed=0):
    """A static Markov chain z0 ~ init0, z_i ~ step(z_{i-1}), w = f(z_{k-1})
    over a 3-value domain, with seeded tables."""
    rng = random.Random(seed)

    def dist():
        w = [rng.randint(1, 4) for _ in range(3)]
        return "{ %s }" % ", ".join("%d : %d/%d" % (v, x, sum(w)) for v, x in enumerate(w))

    names = ["z%d" % i for i in range(k)]
    lines = ["domain t3 = { 0, 1, 2 }", "domain bool = { F, T }",
             "var %s : t3" % ", ".join(names), "var w : bool",
             "dist init0 : t3 " + dist(),
             "dist step(t3) : t3 { %s }" % ", ".join("%d -> %s" % (c, dist()) for c in range(3)),
             "func f : t3 -> bool { 0 -> T, 1 -> F, 2 -> T }",
             "|| z0 ~ init0"]
    lines += ["|| z%d ~ step(z%d)" % (i, i - 1) for i in range(1, k)]
    lines.append("|| w = f(z%d)" % (k - 1))
    return "\n".join(lines) + "\n"


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


def consistent_tree_fgs(rng, count, max_attempts=600):
    """Up to count graphs from rand_tree_fg, with 3, 4 and 5 systems in
    turn, each with its consistent joint; graphs whose joint is
    inconsistent are skipped, at most max_attempts drawn in all."""
    graphs = attempts = 0
    while graphs < count and attempts < max_attempts:
        attempts += 1
        g = rand_tree_fg(rng, 3 + graphs % 3)
        joint = g.systems[g.labels[0]]
        for lab in g.labels[1:]:
            joint = compose(joint, g.systems[lab])
        if not consistency(joint)[0]:
            continue
        graphs += 1
        yield g, joint


# --- programs run as one automaton ------------------------------------------------


def whole_step(p, M, q, obs, n):
    """Step n of p's single automaton M from state q: the guard assignment
    and the whole step's target with every active observation composed in."""
    assign = {}
    env = {pre_name(k): v for k, v in q.items()}
    for label, g in program_guards(p):
        try:
            assign[label] = eval_expr(p, g, env)
        except KeyError:
            raise InconsistentSystem(
                "step %d: guard %s reads a variable the previous instant "
                "did not determine" % (n, label)
            )
    S = M.transition(q, State(assign))
    if S is None:
        raise NoTransition("step %d: no transition from %r" % (n, q))
    watched = list(dict.fromkeys(
        s.var for s in active_leaves(p, assign) if isinstance(s, SObserve)))
    if watched:
        rec = obs[n - 1] if obs is not None and n - 1 < len(obs) else None
        if rec is None:
            raise MissingObservation(
                "step %d: no observation record for %r" % (n, watched)
            )
        S = compose(S, *[observe_point(p, x, rec) for x in watched])
    return assign, S


def whole_run(p, obs=None, steps=1, seed=0, resolver="lex"):
    """run_program as one automaton for the whole program: every step builds
    and samples the full product of all its statements.  Sizes hold the
    whole target's outcome count, as the one part."""
    M = elaborate_dynamic(p)
    prog_vars = [nm for nm in p.vars if nm in {v.name for v in M.vars}]
    rng = random.Random(seed)

    q = M.initial
    trace = [{nm: q[nm] for nm in prog_vars if nm in q}]
    actions, norms, flags, sizes = [], [], [], []
    for n in range(1, steps):
        assign, S = whole_step(p, M, q, obs, n)
        ok, _ = consistency(S)
        if not ok:
            raise InconsistentSystem("step %d: observations contradict the model" % n)
        norms.append(consistency_weight(S))
        flags.append(True)
        actions.append(assign)
        sizes.append((len(S.omega),))
        _, q = sample(S, rng, resolver)
        trace.append({nm: q[nm] for nm in prog_vars if nm in q})
    return ProgramRun(tuple(trace), tuple(actions), tuple(norms), tuple(flags),
                      tuple(sizes))


def enumerated_equation(p, lhs, rhs):
    """equation_system as every state of the equation's variables checked
    in turn: both sides evaluated at each state of the product of their
    domains, in all_states order, and the state kept when their values are
    the same (_same_value); the first state at which a side cannot be
    evaluated raises."""
    names = sorted(set(expr_vars(lhs, pre_name) + expr_vars(rhs, pre_name)))
    vars = [_var(p, nm) for nm in names]
    sols = []
    for q in all_states(vars):
        env = dict(q.items())
        if _same_value(eval_expr(p, lhs, env), eval_expr(p, rhs, env)):
            sols.append(q)
    # the checked constructor sorts each row by domain indices, which is
    # the order all_states enumerates in
    return MixedSystem({"e": Fraction(1)}, vars, {"e": sols})
