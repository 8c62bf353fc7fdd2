"""Simple and generative probabilistic automata, and their exact exchange
with mixed automata.

SPA transitions pick an action first and then a distribution over states
(several distributions per (state, action) make the model nondeterministic).
PA transitions are distributions over (action, state) pairs.  Both carry
lifting-based greatest simulations and bisimulations, computed by the same
refinement engine (automata.refine) and transportation solver as for mixed
automata, over the full product of the two state sets.  A bisimulation is
the greatest R such that both R and R⁻¹ are simulations, the same check as
automata.bisimilar; it is stronger than mutual simulation
(spa_sim_equivalent).

The translations are constructive:

* spa_to_ma takes each SPA step in two automaton steps: a nondeterministic
  commitment to one candidate distribution, then a draw from it;
* ma_to_spa enumerates selection functions over each target system's
  consistent outcomes and renormalizes their image measures;
* pa_to_ma moves the action into a visible variable beside the state, over
  a trivial singleton alphabet.

These blow up exponentially by design; caps keep them at desk scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .automata import MixedAutomaton, action_key, refine
from .core import (
    DOCUMENT_ERRORS,
    Domain,
    MixedSystem,
    State,
    document_error,
    rat,
    value_key,
)
from .errors import CapExceeded, MalformedSystem, MissingInit
from .transport import feasible_transport


def _dist(d) -> dict:
    """Validate and normalize a distribution mapping: exact weights, zero
    entries dropped, total exactly 1."""
    out = {}
    for k, w in d.items():
        f = rat(w)
        if f < 0:
            raise MalformedSystem("negative mass %s at %r" % (f, k))
        if f > 0:
            out[k] = f
    if sum(out.values(), Fraction(0)) != 1:
        raise MalformedSystem("distribution mass is %s, not 1"
                              % sum(out.values(), Fraction(0)))
    return out


def _dist_key(d):
    return tuple(sorted(((repr(k), k, v) for k, v in d.items())))


class SPA:
    """Action-labelled probabilistic automaton: transitions are (state,
    action, distribution-over-states) triples, several per pair allowed."""

    __slots__ = ("alphabet", "states", "initial", "transitions")

    def __init__(self, alphabet, states, initial, transitions):
        self.alphabet = tuple(sorted(set(alphabet), key=action_key))
        states = tuple(states)
        if len(set(states)) != len(states):
            raise MalformedSystem("duplicate SPA states")
        self.states = states
        known = set(states)
        if initial not in known:
            raise MalformedSystem("initial state %r not among states" % (initial,))
        self.initial = initial
        seen = set()
        norm = []
        for q, a, d in transitions:
            if q not in known:
                raise MalformedSystem("transition from unknown state %r" % (q,))
            if a not in self.alphabet:
                raise MalformedSystem("transition on unknown action %r" % (a,))
            d = _dist(d)
            if not set(d) <= known:
                raise MalformedSystem("distribution leaves the state set")
            key = (repr(q), action_key(a), _dist_key(d))
            if key in seen:
                continue
            seen.add(key)
            norm.append((q, a, d))
        norm.sort(key=lambda t: (repr(t[0]), action_key(t[1]), _dist_key(t[2])))
        self.transitions = tuple(norm)

    def dists(self, q, a):
        return [d for (p, b, d) in self.transitions if p == q and b == a]

    def __repr__(self):
        return "SPA(|Q|=%d, |Σ|=%d, %d transitions)" % (
            len(self.states), len(self.alphabet), len(self.transitions))


class PA:
    """Generative probabilistic automaton: transitions are (state,
    distribution-over-(action, state)) pairs."""

    __slots__ = ("alphabet", "states", "initial", "transitions")

    def __init__(self, alphabet, states, initial, transitions):
        self.alphabet = tuple(sorted(set(alphabet), key=action_key))
        states = tuple(states)
        if len(set(states)) != len(states):
            raise MalformedSystem("duplicate PA states")
        self.states = states
        known = set(states)
        acts = set(self.alphabet)
        if initial not in known:
            raise MalformedSystem("initial state %r not among states" % (initial,))
        self.initial = initial
        seen = set()
        norm = []
        for q, d in transitions:
            if q not in known:
                raise MalformedSystem("transition from unknown state %r" % (q,))
            d = _dist(d)
            for (a, s) in d:
                if a not in acts or s not in known:
                    raise MalformedSystem("distribution leaves Σ×Q at %r" % ((a, s),))
            key = (repr(q), _dist_key(d))
            if key in seen:
                continue
            seen.add(key)
            norm.append((q, d))
        norm.sort(key=lambda t: (repr(t[0]), _dist_key(t[1])))
        self.transitions = tuple(norm)

    def dists(self, q):
        return [d for (p, d) in self.transitions if p == q]

    def __repr__(self):
        return "PA(|Q|=%d, |Σ|=%d, %d transitions)" % (
            len(self.states), len(self.alphabet), len(self.transitions))


def _pair(q1, q2) -> str:
    return "(%s,%s)" % (q1, q2)


# --- composition ---------------------------------------------------------


def spa_compose(P1: SPA, P2: SPA) -> SPA:
    """Synchronous product: both components move together on equal actions,
    target distributions multiply.  Product states are rendered as strings
    so the result remains embeddable."""
    states = [_pair(q1, q2) for q1 in P1.states for q2 in P2.states]
    transitions = []
    for q1, a1, d1 in P1.transitions:
        for q2, a2, d2 in P2.transitions:
            if a1 != a2:
                continue
            prod = {}
            for s1, m1 in d1.items():
                for s2, m2 in d2.items():
                    prod[_pair(s1, s2)] = m1 * m2
            transitions.append((_pair(q1, q2), a1, prod))
    return SPA(
        set(P1.alphabet) | set(P2.alphabet),
        states,
        _pair(P1.initial, P2.initial),
        transitions,
    )


def pa_compose(P1: PA, P2: PA, sigma) -> PA:
    """Scheduled product: per pair of component distributions, equal shared
    actions synchronize with product mass; when both sides draw actions
    local to themselves, a σ-biased coin elects which component moves.
    Any other combination is discarded and the remainder renormalized; a
    combination with no surviving mass yields no transition."""
    sigma = rat(sigma)
    if not (0 < sigma < 1):
        raise MalformedSystem("scheduler parameter must lie strictly between 0 and 1")
    alpha1, alpha2 = set(P1.alphabet), set(P2.alphabet)
    states = [_pair(q1, q2) for q1 in P1.states for q2 in P2.states]
    transitions = []
    for q1, d1 in P1.transitions:
        for q2, d2 in P2.transitions:
            w = {}
            for (a1, s1), m1 in d1.items():
                for (a2, s2), m2 in d2.items():
                    if a1 == a2:
                        key = (a1, _pair(s1, s2))
                        w[key] = w.get(key, Fraction(0)) + m1 * m2
                    elif a1 not in alpha2 and a2 not in alpha1:
                        k1 = (a1, _pair(s1, q2))
                        k2 = (a2, _pair(q1, s2))
                        w[k1] = w.get(k1, Fraction(0)) + sigma * m1 * m2
                        w[k2] = w.get(k2, Fraction(0)) + (1 - sigma) * m1 * m2
            total = sum(w.values(), Fraction(0))
            if total == 0:
                continue
            transitions.append((_pair(q1, q2), {k: m / total for k, m in w.items()}))
    return PA(
        alpha1 | alpha2,
        states,
        _pair(P1.initial, P2.initial),
        transitions,
    )


# --- simulation -----------------------------------------------------------


def _all_pairs(P1, P2):
    return [(a, b) for a in P1.states for b in P2.states]


def _spa_lifts(P1, P2):
    """match for refine: every μ1 of q1 is matched, same action, by some μ2
    of q2 whose coupling with μ1 stays inside R."""

    def match(q1, q2, R):
        return all(
            any(
                feasible_transport(
                    d1, d2, [(s1, s2) for s1 in d1 for s2 in d2 if (s1, s2) in R],
                ) is not None
                for d2 in P2.dists(q2, a)
            )
            for p, a, d1 in P1.transitions if p == q1
        )

    return match


def _pa_lifts(P1, P2):
    """match for refine: couplings pair (action, state) outcomes with equal
    actions and related states."""

    def match(q1, q2, R):
        return all(
            any(
                feasible_transport(
                    d1, d2,
                    [(p1, p2) for p1 in d1 for p2 in d2
                     if p1[0] == p2[0] and (p1[1], p2[1]) in R],
                ) is not None
                for d2 in P2.dists(q2)
            )
            for p, d1 in P1.transitions if p == q1
        )

    return match


def spa_simulates(P1: SPA, P2: SPA):
    """Greatest SPA simulation of P1 by P2, or None if it misses the
    initial pair."""
    return refine(_all_pairs(P1, P2), (P1.initial, P2.initial), _spa_lifts(P1, P2))


def spa_bisimilar(P1: SPA, P2: SPA):
    """Greatest SPA bisimulation, or None if it misses the initial pair."""
    return refine(_all_pairs(P1, P2), (P1.initial, P2.initial),
                  _spa_lifts(P1, P2), _spa_lifts(P2, P1))


def pa_simulates(P1: PA, P2: PA):
    """Greatest PA simulation of P1 by P2, or None if it misses the initial
    pair."""
    return refine(_all_pairs(P1, P2), (P1.initial, P2.initial), _pa_lifts(P1, P2))


def pa_bisimilar(P1: PA, P2: PA):
    """Greatest PA bisimulation, or None if it misses the initial pair."""
    return refine(_all_pairs(P1, P2), (P1.initial, P2.initial),
                  _pa_lifts(P1, P2), _pa_lifts(P2, P1))


def spa_sim_equivalent(P1, P2) -> bool:
    return spa_simulates(P1, P2) is not None and spa_simulates(P2, P1) is not None


# --- embeddings -------------------------------------------------------------


def _values_domain(name, values):
    for v in values:
        value_key(v)
    return Domain(name, tuple(sorted(values, key=value_key)))


def _fresh_token(base, taken):
    while base in taken:
        base = base + "'"
    return base


#: reserved action carrying the sampling half of an embedded SPA step; fixed
#: (not freshened) so that images of different SPAs stay phase-aligned.
SPA_COMMIT = "@commit"


def spa_to_ma(P: SPA, var="xi", cap=4096) -> MixedAutomaton:
    """Mixed automaton over one variable ranging over the SPA's states plus
    one commitment token per candidate distribution.

    Each SPA step becomes two automaton steps.  On the SPA's action the
    automaton takes a *commitment* transition: a trivial probability space
    whose single outcome relates to every candidate's token, so picking a
    candidate is pure nondeterminism resolved before any sampling.  From a
    token, a reserved action carries the *sampling* transition: the
    committed distribution itself, purely probabilistic.

    Committing before sampling is what makes the image respect the
    per-candidate simulation quantifier.  Materializing all candidates as
    one product space instead — one draw per candidate, the variable
    reading any coordinate — resolves the nondeterminism after the draws
    are revealed, which both grants the simulating side per-outcome choice
    of candidate and forces the simulated side to cover all of its draws
    at once; either effect flips verdicts on adversarial instances.  The
    two-step image also composes: after commitment exactly one candidate
    pair is sampled, so the product of images and the image of the product
    materialize the same spaces.
    """
    if SPA_COMMIT in P.alphabet:
        raise MalformedSystem("action name %r is reserved" % SPA_COMMIT)
    tokens = {}
    token_list = []
    grouped = {}
    for q, a, d in P.transitions:
        grouped.setdefault((q, a), []).append(d)
    taken = set(P.states)
    for (q, a), ds in sorted(grouped.items(),
                             key=lambda kv: (repr(kv[0][0]), action_key(kv[0][1]))):
        ds.sort(key=_dist_key)
        if len(ds) > cap:
            raise CapExceeded(
                "spa_to_ma at (%r, %r): %d candidates exceed cap %d"
                % (q, a, len(ds), cap)
            )
        for i, d in enumerate(ds):
            t = _fresh_token("%s@%s#%d" % (q, a, i), taken)
            taken.add(t)
            tokens[(q, a, i)] = t
            token_list.append((q, a, i, d, t))

    tau = SPA_COMMIT
    dom = _values_domain("Q_%s" % var, list(P.states) + [t for *_, t in token_list])
    vars = [(var, dom)]

    delta = {}
    for (q, a), ds in grouped.items():
        row = [State({var: tokens[(q, a, i)]}) for i in range(len(ds))]
        delta[(State({var: q}), a)] = MixedSystem(
            (["c"], {"c": Fraction(1)}), vars, {"c": row})
    for q, a, i, d, t in token_list:
        omega = sorted(d, key=value_key)
        rel = {c: [State({var: c})] for c in omega}
        delta[(State({var: t}), tau)] = MixedSystem((omega, d), vars, rel)

    alphabet = list(P.alphabet) + [tau]
    return MixedAutomaton(alphabet, vars, {var: P.initial}, delta)


def ma_to_spa(M: MixedAutomaton, cap=4096) -> SPA:
    """SPA over the automaton's state space: per (q, α), every selection of
    one admissible state per consistent outcome gives one candidate
    distribution — the selection's image measure, renormalized.  Duplicate
    distributions collapse.  Transitions to inconsistent systems carry no
    probabilistic behavior and are skipped."""
    states = tuple(M.states())
    if not M.is_total_state(M.initial):
        raise MissingInit("automaton initial state is partial")
    transitions = []
    for (q, a), S in sorted(M.delta.items(),
                            key=lambda kv: (repr(kv[0][0]), action_key(kv[0][1]))):
        live = [o for o in S.omega if S.pi[o] > 0 and S.rel[o]]
        z = sum((S.pi[o] for o in live), Fraction(0))
        if z == 0:
            continue
        count = 1
        for o in live:
            count *= len(S.rel[o])
        if count > cap:
            raise CapExceeded(
                "ma_to_spa at (%r, %r): %d selections exceed cap %d"
                % (q, a, count, cap)
            )
        seen = set()
        for choice in itertools.product(*[S.rel[o] for o in live]):
            d = {}
            for o, target in zip(live, choice):
                d[target] = d.get(target, Fraction(0)) + S.pi[o] / z
            key = _dist_key(d)
            if key not in seen:
                seen.add(key)
                transitions.append((q, a, d))
    return SPA(M.alphabet, states, M.initial, transitions)


def pa_to_ma(P: PA, act_var="xi_a", state_var="xi_q", cap=4096) -> MixedAutomaton:
    """Mixed automaton over a trivial singleton alphabet with two visible
    variables: the action drawn and the state reached.

    As with spa_to_ma, each PA step takes two automaton steps on the one
    action: a commitment transition nondeterministically picks one of the
    state's candidate distributions (one token per candidate, no
    randomness), then the sampling transition draws the committed joint
    (action, state) law into the two visible variables.  The state variable
    carries tokens between the phases; the action variable is simply held.
    The initial action value is pinned to the first action in sorted order,
    the same convention on both sides of any comparison.
    """
    grouped = {}
    for q, d in P.transitions:
        grouped.setdefault(q, []).append(d)

    tokens = {}
    token_list = []
    taken = set(P.states)
    for q, ds in sorted(grouped.items(), key=lambda kv: repr(kv[0])):
        ds.sort(key=_dist_key)
        if len(ds) > cap:
            raise CapExceeded(
                "pa_to_ma at %r: %d candidates exceed cap %d"
                % (q, len(ds), cap)
            )
        for i, d in enumerate(ds):
            t = _fresh_token("%s#%d" % (q, i), taken)
            taken.add(t)
            tokens[(q, i)] = t
            token_list.append((q, i, d, t))

    adom = _values_domain("Q_%s" % act_var, P.alphabet)
    qdom = _values_domain(
        "Q_%s" % state_var, list(P.states) + [t for *_, t in token_list])
    vars = [(act_var, adom), (state_var, qdom)]

    delta = {}
    for q, ds in grouped.items():
        for a0 in adom.values:
            row = [State({act_var: a0, state_var: tokens[(q, i)]})
                   for i in range(len(ds))]
            delta[(State({act_var: a0, state_var: q}), 1)] = MixedSystem(
                (["c"], {"c": Fraction(1)}), vars, {"c": row})
    for q, i, d, t in token_list:
        omega = sorted(d, key=lambda p: (action_key(p[0]), value_key(p[1])))
        rel = {(a, s): [State({act_var: a, state_var: s})] for (a, s) in omega}
        S = MixedSystem((omega, d), vars, rel)
        for a0 in adom.values:
            delta[(State({act_var: a0, state_var: t}), 1)] = S
    initial = State({act_var: adom.values[0], state_var: P.initial})
    return MixedAutomaton((1,), vars, initial, delta)


def spa_embed_pa(P: SPA) -> PA:
    """Push each SPA action into its distribution: (q, α, μ) becomes the
    generative transition (q, δ_α × μ)."""
    return PA(
        P.alphabet,
        P.states,
        P.initial,
        [(q, {(a, s): m for s, m in d.items()}) for q, a, d in P.transitions],
    )


# --- JSON -------------------------------------------------------------------


def _label(x):
    """JSON-boundary name for a state or action: strings stand for
    themselves, automaton states print their coordinates, anything else
    falls back to repr."""
    if isinstance(x, str):
        return x
    if isinstance(x, State):
        if not x.names:
            return "{}"
        return ",".join("%s=%r" % (n, x[n]) for n in x.names)
    return repr(x)


def _label_map(items):
    out = {}
    taken = set()
    for it in items:
        base = _label(it)
        lab = base
        k = 2
        while lab in taken:
            lab = "%s#%d" % (base, k)
            k += 1
        taken.add(lab)
        out[it] = lab
    return out


def spa_to_json(P: SPA) -> dict:
    sl = _label_map(P.states)
    al = _label_map(P.alphabet)
    return {
        "kind": "spa",
        "alphabet": [al[a] for a in P.alphabet],
        "states": [sl[q] for q in P.states],
        "initial": sl[P.initial],
        "transitions": [
            {
                "from": sl[q],
                "action": al[a],
                "dist": [[sl[s], "%d/%d" % (m.numerator, m.denominator)]
                         for s, m in sorted(d.items(), key=lambda kv: repr(kv[0]))],
            }
            for q, a, d in P.transitions
        ],
    }


def spa_from_json(doc: dict) -> SPA:
    try:
        fields = doc["alphabet"], doc["states"], doc["initial"]
        transitions = [
            (e["from"], e["action"], {s: rat(m) for s, m in e["dist"]})
            for e in doc["transitions"]
        ]
    except DOCUMENT_ERRORS as exc:
        raise document_error("spa", exc)
    return SPA(*fields, transitions)


def pa_to_json(P: PA) -> dict:
    sl = _label_map(P.states)
    al = _label_map(P.alphabet)
    return {
        "kind": "pa",
        "alphabet": [al[a] for a in P.alphabet],
        "states": [sl[q] for q in P.states],
        "initial": sl[P.initial],
        "transitions": [
            {
                "from": sl[q],
                "dist": [[al[a], sl[s], "%d/%d" % (m.numerator, m.denominator)]
                         for (a, s), m in sorted(d.items(), key=lambda kv: repr(kv[0]))],
            }
            for q, d in P.transitions
        ],
    }


def pa_from_json(doc: dict) -> PA:
    try:
        fields = doc["alphabet"], doc["states"], doc["initial"]
        transitions = [
            (e["from"], {(a, s): rat(m) for a, s, m in e["dist"]})
            for e in doc["transitions"]
        ]
    except DOCUMENT_ERRORS as exc:
        raise document_error("pa", exc)
    return PA(*fields, transitions)
