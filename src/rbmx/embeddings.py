"""Simple and generative probabilistic automata, and their exact exchange
with mixed automata.

SPA transitions pick an action first and then a distribution over states
(several distributions per (state, action) make the model nondeterministic).
PA transitions are distributions over (action, state) pairs.  Both build
one {state: transitions} index at construction, read by SPA.dists() and
pa_to_ma.

Both kinds carry lifting-based greatest simulations and bisimulations: each
check hands automata.greatest a View of each side (_spa_view, _pa_view), so
they share the matcher and the two-stage fixpoint of mixed automata.  A
View numbers the states by their position, indexes its moves once by state
number and compiles each distribution once into core.Masses keyed by
state number (for a PA, by (action, state number)).  Both lift tests build
their allowed pairs from the relation's rows: the cover test, which
greatest's cover stage runs and which decides every lift of a point mass,
calls transport.covers, and an exact lift calls transport.coupling, so the
lifts inside the fixpoint hash no state and compare no Fraction.  A Dirac
distribution is a point, so a check between automata whose distributions
are all Dirac builds no flow at all.  The relation ranges over the full
product of the two state sets, bounded by core.MAX_OUTCOMES pairs.  A
bisimulation is the greatest R such that both R and R⁻¹ are simulations,
the same check as automata.bisimilar; it is stronger than mutual
simulation (spa_sim_equivalent).

The translations are constructive:

* spa_to_ma takes each SPA step in two automaton steps: a nondeterministic
  commitment to one candidate distribution, then a draw from it;
* ma_to_spa enumerates selection functions over each target system's
  consistent outcomes and renormalizes their image measures;
* pa_to_ma moves the action into a visible variable beside the state, over
  a trivial singleton alphabet.

Only ma_to_spa can blow up: it lists every selection of one state per
outcome, exponentially many in the outcomes, and its ``cap`` bounds them.
spa_to_ma is linear in the transitions; pa_to_ma holds one copy of each
transition per action value.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .automata import MixedAutomaton, View, action_key, greatest
from .core import (
    Domain,
    Masses,
    MixedSystem,
    State,
    document_reader,
    exact_weights,
    format_rat,
    json_label,
    rat,
    read_weight,
    unique_labels,
    value_key,
)
from .errors import CapExceeded, MalformedSystem, MissingInit
from .transport import coupling, covers


def _dist(d) -> dict:
    """Validate and normalize a distribution mapping: exact weights
    (core.exact_weights), zero entries dropped."""
    return {k: f for k, f in exact_weights(d, d).items() if f}


def _weight_ranks(dists) -> dict:
    """{id(f): rank of f's value} over the weight objects f of dists, which
    must stay alive while the ranks are read.  A key that holds ranks hashes
    and compares integers, yet sorts exactly as one holding the Fractions
    would; (numerator, denominator) would not (it puts 1/2 before 1/3).
    Readers share one Fraction per weight text, so the values are compared
    once per distinct object."""
    objects = {id(f): f for d in dists for f in d.values()}
    values = {}
    for f in objects.values():
        values.setdefault((f.numerator, f.denominator), f)
    order = {nd: i for i, nd in enumerate(sorted(values, key=values.__getitem__))}
    return {i: order[f.numerator, f.denominator] for i, f in objects.items()}


def _dist_key(d, ranks):
    return tuple(sorted((repr(k), k, ranks[id(f)]) for k, f in d.items()))


class _ProbAutomaton:
    """What SPA and PA share: a sorted alphabet, distinct states, an initial
    state among them, and transitions from known states.  Each subclass's
    _norm validates the rest of a transition and returns it normalized, and
    its _key gives the key that deduplicates and orders the transitions,
    with each weight replaced by its rank among the automaton's weights
    (_weight_ranks).  ``out`` indexes them by their source state, in
    order."""

    __slots__ = ("alphabet", "states", "initial", "transitions", "out")

    def __init__(self, alphabet, states, initial, transitions):
        self.alphabet = tuple(sorted(set(alphabet), key=action_key))
        self.states = tuple(states)
        known = set(self.states)
        if len(known) != len(self.states):
            raise MalformedSystem("duplicate %s states" % type(self).__name__)
        if initial not in known:
            raise MalformedSystem("initial state %r not among states" % (initial,))
        self.initial = initial
        checked = []
        for t in transitions:
            if t[0] not in known:
                raise MalformedSystem("transition from unknown state %r" % (t[0],))
            checked.append(self._norm(t, known))
        ranks = _weight_ranks(t[-1] for t in checked)
        norm = {}
        for t in checked:
            norm.setdefault(self._key(t, ranks), t)
        self.transitions = tuple(norm[k] for k in sorted(norm))
        self.out = {}
        for t in self.transitions:
            self.out.setdefault(t[0], []).append(t)

    def __repr__(self):
        return "%s(|Q|=%d, |Σ|=%d, %d transitions)" % (
            type(self).__name__, len(self.states), len(self.alphabet), len(self.transitions))


class SPA(_ProbAutomaton):
    """Action-labelled probabilistic automaton: transitions are (state,
    action, distribution-over-states) triples, several per pair allowed."""

    __slots__ = ()

    def _norm(self, t, known):
        q, a, d = t
        if a not in self.alphabet:
            raise MalformedSystem("transition on unknown action %r" % (a,))
        d = _dist(d)
        if not set(d) <= known:
            raise MalformedSystem("distribution leaves the state set")
        return q, a, d

    @staticmethod
    def _key(t, ranks):
        q, a, d = t
        return repr(q), action_key(a), _dist_key(d, ranks)

    def dists(self, q, a):
        return [d for _, b, d in self.out.get(q, ()) if b == a]


class PA(_ProbAutomaton):
    """Generative probabilistic automaton: transitions are (state,
    distribution-over-(action, state)) pairs."""

    __slots__ = ()

    def _norm(self, t, known):
        q, d = t
        d = _dist(d)
        for (a, s) in d:
            if a not in self.alphabet or s not in known:
                raise MalformedSystem("distribution leaves Σ×Q at %r" % ((a, s),))
        return q, d

    @staticmethod
    def _key(t, ranks):
        q, d = t
        return repr(q), _dist_key(d, ranks)


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


def _prob_view(P, label, key, allowed) -> View:
    """The View of an SPA or PA: moves and targets indexed once by source
    state number, in transition order, with each distribution compiled once
    into core.Masses over key(k, num), num numbering the states;
    label(t) is the label of transition t's move.  allowed(d1, d2, rows,
    found) lists the key pairs a coupling inside R may use, and both lift
    tests read them: lifts through transport.coupling, covers through
    transport.covers."""
    num = {q: i for i, q in enumerate(P.states)}
    moves = [[] for _ in P.states]
    targets = [{} for _ in P.states]
    for t in P.transitions:
        i, a = num[t[0]], label(t)
        m = Masses({key(k, num): w for k, w in t[-1].items()})
        moves[i].append((a, m))
        targets[i].setdefault(a, []).append(m)

    def lifts(d1, d2, rows, found):
        return coupling(d1, d2, allowed(d1, d2, rows, found)) is not None

    def covers_(d1, d2, rows, found):
        return covers(d1, d2, allowed(d1, d2, rows, found))

    return View(P.states, P.initial, moves.__getitem__,
                lambda j, a: targets[j].get(a, ()), lifts, covers_, _point)


def _point(d) -> bool:
    return len(d.mass) <= 1


def _spa_allowed(d1, d2, rows, found):
    """Two distributions over state numbers may couple related states."""
    allowed = [(x, y) for x in d1.mass for y in d2.mass if y in rows[x]]
    found += allowed
    return allowed


def _pa_allowed(d1, d2, rows, found):
    """Two distributions over (action, state number) may couple equal
    actions with related states."""
    allowed = [(k1, k2) for k1 in d1.mass for k2 in d2.mass
               if k1[0] == k2[0] and k2[1] in rows[k1[1]]]
    found += [(k1[1], k2[1]) for k1, k2 in allowed]
    return allowed


def _spa_view(P: SPA) -> View:
    """Moves are (action, distribution) pairs."""
    return _prob_view(P, lambda t: t[1], lambda s, num: num[s], _spa_allowed)


def _pa_view(P: PA) -> View:
    """Moves carry no label, since the action is drawn with the state."""
    return _prob_view(P, lambda t: None, lambda k, num: (k[0], num[k[1]]), _pa_allowed)


def spa_simulates(P1: SPA, P2: SPA):
    """Greatest SPA simulation of P1 by P2, or None if it misses the
    initial pair."""
    return greatest(_spa_view(P1), _spa_view(P2))


def spa_bisimilar(P1: SPA, P2: SPA):
    """Greatest SPA bisimulation, or None if it misses the initial pair."""
    return greatest(_spa_view(P1), _spa_view(P2), bisim=True)


def pa_simulates(P1: PA, P2: PA):
    """Greatest PA simulation of P1 by P2, or None if it misses the initial
    pair."""
    return greatest(_pa_view(P1), _pa_view(P2))


def pa_bisimilar(P1: PA, P2: PA):
    """Greatest PA bisimulation, or None if it misses the initial pair."""
    return greatest(_pa_view(P1), _pa_view(P2), bisim=True)


def spa_sim_equivalent(P1, P2) -> bool:
    return spa_simulates(P1, P2) is not None and spa_simulates(P2, P1) is not None


# --- embeddings -------------------------------------------------------------


def _tokens(groups, name, taken):
    """One fresh name per candidate of each group: name(key, i), primed
    until it clashes with nothing in ``taken``, which grows as names are
    made.  Returns {key: [token, ...]} in the groups' order."""
    out = {}
    for key, ds in groups.items():
        out[key] = []
        for i in range(len(ds)):
            t = name(key, i)
            while t in taken:
                t = t + "'"
            taken.add(t)
            out[key].append(t)
    return out


#: reserved action carrying the sampling half of an embedded SPA step; fixed
#: (not freshened) so that images of different SPAs stay phase-aligned.
SPA_COMMIT = "@commit"


def spa_to_ma(P: SPA, var="xi") -> MixedAutomaton:
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
    grouped = {}  # (q, a) -> candidates; the transitions are sorted, so are these
    for q, a, d in P.transitions:
        grouped.setdefault((q, a), []).append(d)
    tokens = _tokens(grouped, lambda qa, i: "%s@%s#%d" % (qa[0], qa[1], i), set(P.states))

    tau = SPA_COMMIT
    dom = Domain("Q_%s" % var, sorted(
        list(P.states) + [t for ts in tokens.values() for t in ts], key=value_key))
    vars = [(var, dom)]

    delta = {}
    for (q, a), ts in tokens.items():
        delta[(State({var: q}), a)] = MixedSystem(
            (["c"], {"c": Fraction(1)}), vars, {"c": [State({var: t}) for t in ts]})
    for qa, ds in grouped.items():
        for d, t in zip(ds, tokens[qa]):
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
    for (q, a), S in sorted(M.materialize().delta.items(),
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
            key = frozenset(d.items())
            if key not in seen:
                seen.add(key)
                transitions.append((q, a, d))
    return SPA(M.alphabet, states, M.initial, transitions)


def pa_to_ma(P: PA, act_var="xi_a", state_var="xi_q") -> MixedAutomaton:
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
    tokens = _tokens(P.out, lambda q, i: "%s#%d" % (q, i), set(P.states))
    adom = Domain("Q_%s" % act_var, sorted(P.alphabet, key=value_key))
    qdom = Domain("Q_%s" % state_var, sorted(
        list(P.states) + [t for ts in tokens.values() for t in ts], key=value_key))
    vars = [(act_var, adom), (state_var, qdom)]

    delta = {}
    for q, ts in tokens.items():
        for a0 in adom.values:
            row = [State({act_var: a0, state_var: t}) for t in ts]
            delta[(State({act_var: a0, state_var: q}), 1)] = MixedSystem(
                (["c"], {"c": Fraction(1)}), vars, {"c": row})
    for q, ts in P.out.items():
        for (_, d), t in zip(ts, tokens[q]):
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


def _automaton_to_json(kind, P, entry) -> dict:
    """The document of P, an SPA or PA of the given kind: the shared fields,
    and entry(t, sl, al) for each transition t, sl and al labelling P."""
    sl = unique_labels(P.states, _label)
    al = unique_labels(P.alphabet, _label)
    return {
        "kind": kind,
        "alphabet": [al[a] for a in P.alphabet],
        "states": [sl[q] for q in P.states],
        "initial": sl[P.initial],
        "transitions": [entry(t, sl, al) for t in P.transitions],
    }


def _automaton_from_json(cls, doc, table, entry):
    """The SPA or PA cls of a document: the fields both kinds share, and
    entry(e, table) for each transition entry e, table being the
    document's (core.read_weight)."""
    return cls([json_label("alphabet", a) for a in doc["alphabet"]],
               [json_label("states", q) for q in doc["states"]],
               json_label("initial", doc["initial"]),
               [entry(e, table) for e in doc["transitions"]])


def _spa_entry_to_json(t, sl, al) -> dict:
    q, a, d = t
    dist = sorted(d.items(), key=lambda kv: repr(kv[0]))
    return {"from": sl[q], "action": al[a], "dist": [[sl[s], format_rat(m)] for s, m in dist]}


def _spa_entry_from_json(e, table):
    return (json_label("from", e["from"]), json_label("action", e["action"]),
            {s: read_weight(table, m) for s, m in e["dist"]})


def _pa_entry_to_json(t, sl, al) -> dict:
    q, d = t
    dist = sorted(d.items(), key=lambda kv: repr(kv[0]))
    return {"from": sl[q], "dist": [[al[a], sl[s], format_rat(m)] for (a, s), m in dist]}


def _pa_entry_from_json(e, table):
    return (json_label("from", e["from"]),
            {(a, s): read_weight(table, m) for a, s, m in e["dist"]})


def spa_to_json(P: SPA) -> dict:
    return _automaton_to_json("spa", P, _spa_entry_to_json)


@document_reader("spa")
def spa_from_json(doc: dict, table: dict) -> SPA:
    return _automaton_from_json(SPA, doc, table, _spa_entry_from_json)


def pa_to_json(P: PA) -> dict:
    return _automaton_to_json("pa", P, _pa_entry_to_json)


@document_reader("pa")
def pa_from_json(doc: dict, table: dict) -> PA:
    return _automaton_from_json(PA, doc, table, _pa_entry_from_json)
