"""Mixed automata: deterministic maps from (state, action) to mixed systems.

The automaton itself is deterministic — at most one target system per
(state, action) — and all the probabilistic/nondeterministic behavior lives
inside the target systems.  Composition synchronizes actions through a
pluggable action algebra.  Simulation between automata reduces, per
transition pair, to an exact transportation-feasibility question on the
target systems' outcome weights, with allowed couplings governed by the
candidate state relation.

refine() is the greatest-fixpoint engine for every simulation check, here
and in the embeddings module: simulates() keeps the pairs whose forward
transitions lift, bisimilar() the pairs that lift both ways.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import (
    DOCUMENT_ERRORS,
    MixedSystem,
    State,
    all_states,
    compose,
    document_error,
    equivalent,
    json_label,
    merge_vars,
    norm_vars,
    sample,
    state_join,
    states_compatible,
    system_from_json,
    system_to_json,
    value_key,
    vars_from_json,
)
from .errors import (
    IncompatibleInitials,
    InconsistentSystem,
    MalformedSystem,
    MissingInit,
    NondeterministicJoin,
    NoTransition,
    VariableSetMismatch,
)
from .transport import feasible_transport


def action_key(a):
    """Deterministic ordering for mixed-type action labels."""
    try:
        return (0,) + value_key(a)
    except MalformedSystem:
        return (1, repr(a))


class MixedAutomaton:
    """States are total assignments over ``vars``; ``delta`` maps (state,
    action) to a target system over the same variables.

    ``initial`` may be a partial state (program fragments pin only some
    variables); running requires a total one.  A ``provider`` callable
    (state, action) -> system-or-None serves transitions lazily; results are
    cached into delta.  materialize() forces the whole table.
    """

    __slots__ = ("alphabet", "vars", "initial", "delta", "provider")

    def __init__(self, alphabet, vars, initial, delta=None, provider=None):
        self.alphabet = tuple(sorted(set(alphabet), key=action_key))
        self.vars = norm_vars(vars)
        if initial is None:
            initial = State()
        elif not isinstance(initial, State):
            initial = State(initial)
        doms = {v.name: v.domain for v in self.vars}
        for n, val in initial.items():
            if n not in doms:
                raise VariableSetMismatch("initial binds unknown variable %r" % n)
            if val not in doms[n]:
                raise VariableSetMismatch("initial value %r outside domain of %r" % (val, n))
        self.initial = initial
        self.delta = {}
        self.provider = provider
        for (q, a), S in (delta or {}).items():
            if not isinstance(q, State):
                q = State(q)
            self._store(q, a, S)

    def _store(self, q: State, a, S: MixedSystem):
        if S.var_names != tuple(v.name for v in self.vars):
            raise VariableSetMismatch(
                "target at (%r, %r) has variables %r, automaton has %r"
                % (q, a, list(S.var_names), [v.name for v in self.vars])
            )
        self.delta[(q, a)] = S
        return S

    def transition(self, q, a):
        """The target system at (q, a), or None when no transition exists."""
        if not isinstance(q, State):
            q = State(q)
        S = self.delta.get((q, a))
        if S is None and self.provider is not None:
            S = self.provider(q, a)
            if S is not None:
                S = self._store(q, a, S)
        return S

    def states(self):
        return all_states(self.vars)

    def reachable(self):
        """States reachable from the initial state through positive-mass
        outcomes, in BFS order.  Falls back to the full state space when the
        initial state is partial (fragments cannot step)."""
        if not self.is_total_state(self.initial):
            return list(self.states())
        seen = {self.initial}
        order = [self.initial]
        frontier = [self.initial]
        while frontier:
            nxt = []
            for q in frontier:
                for a in self.alphabet:
                    S = self.transition(q, a)
                    if S is None:
                        continue
                    for o in S.omega:
                        if S.pi[o] <= 0:
                            continue
                        for t in S.rel[o]:
                            if t not in seen:
                                seen.add(t)
                                order.append(t)
                                nxt.append(t)
            frontier = nxt
        return order

    def materialize(self, cap=4096):
        """Force every (state, action) pair through the provider."""
        from .errors import CapExceeded

        count = 0
        for q in self.states():
            for a in self.alphabet:
                count += 1
                if count > cap:
                    raise CapExceeded("materialization exceeds cap %d" % cap)
                self.transition(q, a)
        return self

    def is_total_state(self, q: State) -> bool:
        return set(q.names) == {v.name for v in self.vars}

    def __repr__(self):
        return "MixedAutomaton(|Σ|=%d, X=%s, |delta|=%d%s)" % (
            len(self.alphabet),
            [v.name for v in self.vars],
            len(self.delta),
            ", lazy" if self.provider else "",
        )


class Step(NamedTuple):
    state: State
    action: object
    outcome: object
    next_state: State


class Run(NamedTuple):
    steps: tuple
    error: object  # None, or the error message of the aborting step

    @property
    def states(self):
        if not self.steps:
            return ()
        return (self.steps[0].state,) + tuple(s.next_state for s in self.steps)


def ma_step(M: MixedAutomaton, q, a, rng, resolver="lex") -> State:
    S = M.transition(q, a)
    if S is None:
        raise NoTransition("no transition at (%r, %r)" % (q, a))
    _, q2 = sample(S, rng, resolver)
    return q2


def ma_run(M: MixedAutomaton, actions, rng, resolver="lex", start=None) -> Run:
    """Chain transitions along the action sequence, sampling each target.
    An inconsistent target aborts and returns the partial run with the
    error recorded."""
    q = M.initial if start is None else (start if isinstance(start, State) else State(start))
    if not M.is_total_state(q):
        raise MissingInit("starting state %r is not total over %r"
                          % (q, [v.name for v in M.vars]))
    steps = []
    for a in actions:
        S = M.transition(q, a)
        if S is None:
            return Run(tuple(steps), "no transition at (%r, %r)" % (q, a))
        try:
            o, q2 = sample(S, rng, resolver)
        except InconsistentSystem as exc:
            return Run(tuple(steps), "inconsistent target at (%r, %r): %s" % (q, a, exc))
        steps.append(Step(q, a, o, q2))
        q = q2
    return Run(tuple(steps), None)


# --- composition ------------------------------------------------------------


class ActionAlgebra(NamedTuple):
    """compatible(a1, a2) says whether two actions synchronize; join(a1, a2)
    names their synchronized action (only called on compatible pairs)."""

    compatible: object
    join: object


def sync_on_equal() -> ActionAlgebra:
    """Components synchronize exactly on identical labels."""
    return ActionAlgebra(lambda a, b: a == b, lambda a, b: a)


def assignment_algebra() -> ActionAlgebra:
    """Actions are partial truth assignments (State objects); any two
    non-contradictory assignments synchronize to their union.  Contradictory
    assignments denote an unsatisfiable conjunction: no joint action."""
    return ActionAlgebra(states_compatible, state_join)


def ma_compose(M1: MixedAutomaton, M2: MixedAutomaton, algebra=None) -> MixedAutomaton:
    """Product automaton: joinable state pairs, actions joined through the
    algebra, targets composed in parallel.  Raises NondeterministicJoin when
    two distinct transition pairs land on the same (state, action) with
    non-equivalent targets, IncompatibleInitials when the initial states
    disagree on a shared variable, and DomainMismatch when a shared variable
    carries different domains."""
    if algebra is None:
        algebra = sync_on_equal()

    q0 = state_join(M1.initial, M2.initial)
    if q0 is None:
        raise IncompatibleInitials(
            "initial states %r and %r clash" % (M1.initial, M2.initial)
        )

    vars = merge_vars(M1.vars, M2.vars)

    alphabet = set()
    for a1 in M1.alphabet:
        for a2 in M2.alphabet:
            if algebra.compatible(a1, a2):
                alphabet.add(algebra.join(a1, a2))

    delta = {}
    for (q1, a1), S1 in M1.delta.items():
        for (q2, a2), S2 in M2.delta.items():
            if not algebra.compatible(a1, a2):
                continue
            q = state_join(q1, q2)
            if q is None:
                continue
            a = algebra.join(a1, a2)
            S = compose(S1, S2)
            prev = delta.get((q, a))
            if prev is not None:
                if not equivalent(prev, S):
                    raise NondeterministicJoin(
                        "two transition pairs collide at (%r, %r) with different targets"
                        % (q, a)
                    )
                continue
            delta[(q, a)] = S
    return MixedAutomaton(alphabet, vars, q0, delta)


# --- lifting ---------------------------------------------------------------


def _as_relation(rho):
    if callable(rho):
        return rho
    pairs = set()
    for q1, q2 in rho:
        if not isinstance(q1, State):
            q1 = State(q1)
        if not isinstance(q2, State):
            q2 = State(q2)
        pairs.add((q1, q2))
    return lambda a, b: (a, b) in pairs


def lift_check(S1: MixedSystem, S2: MixedSystem, rho):
    """Decide whether the relation lifts between the two systems' weights.

    A pair of outcomes may be coupled when every state admitted by the first
    has some related state admitted by the second.  The raw (unconditioned)
    weights must then transport exactly across the allowed pairs; the
    witness weighting is returned, or None when infeasible.
    """
    rel = _as_relation(rho)
    allowed = []
    support1 = [o for o in S1.omega if S1.pi[o] > 0]
    support2 = [o for o in S2.omega if S2.pi[o] > 0]
    row2sets = {o2: S2.rel[o2] for o2 in support2}
    for o1 in support1:
        row1 = S1.rel[o1]
        for o2 in support2:
            row2 = row2sets[o2]
            if all(any(rel(q1, q2) for q2 in row2) for q1 in row1):
                allowed.append((o1, o2))
    return feasible_transport(
        {o: S1.pi[o] for o in support1},
        {o: S2.pi[o] for o in support2},
        allowed,
    )


def verify_weighting(S1: MixedSystem, S2: MixedSystem, rho, w) -> bool:
    """Independent check of a lifting witness: nonnegative, projects to the
    raw weights on both sides, and couples only allowed outcome pairs."""
    rel = _as_relation(rho)
    if any(m < 0 for m in w.values()):
        return False
    for (o1, o2), m in w.items():
        if m == 0:
            continue
        if not all(any(rel(q1, q2) for q2 in S2.rel[o2]) for q1 in S1.rel[o1]):
            return False
    for o1 in S1.omega:
        if sum((m for (a, _), m in w.items() if a == o1), Fraction(0)) != S1.pi[o1]:
            return False
    for o2 in S2.omega:
        if sum((m for (_, b), m in w.items() if b == o2), Fraction(0)) != S2.pi[o2]:
            return False
    return True


# --- simulation ---------------------------------------------------------------


def refine(pairs, initial, match, back=None):
    """The greatest subset R of ``pairs`` in which every pair (p, q) passes
    match(p, q, R) and, when ``back`` is given, also back(q, p, R⁻¹); None
    when R does not hold ``initial``.

    This is the one greatest-fixpoint loop behind every simulation check.
    Each round collects the pairs of R that fail against that round's R and
    removes them, so R shrinks until a round removes nothing.  Matching is
    monotone in R, so a dropped pair never comes back and the loop may stop
    once ``initial`` is gone.  It stops only between rounds: the work done
    then does not depend on set iteration order.
    """
    R = set(pairs)
    while initial in R:
        rev = {(q, p) for p, q in R} if back is not None else None
        removed = {
            (p, q) for p, q in R
            if not match(p, q, R) or (back is not None and not back(q, p, rev))
        }
        if not removed:
            return R
        R -= removed
    return None


def _lifts(M1, M2):
    """match for refine: every M1 transition at q1 lifts, through R, into
    the M2 transition on the same action at q2."""

    def match(q1, q2, R):
        rel = lambda a, b: (a, b) in R
        for a in M1.alphabet:
            T1 = M1.transition(q1, a)
            if T1 is None:
                continue
            T2 = M2.transition(q2, a)
            if T2 is None or lift_check(T1, T2, rel) is None:
                return False
        return True

    return match


def _with_initial(M):
    """reachable() plus the initial state itself — partial initials (program
    fragments pin only some variables) are states of the refinement too."""
    Q = M.reachable()
    if M.initial not in set(Q):
        Q = [M.initial] + Q
    return Q


def _state_pairs(M1, M2):
    Q2 = _with_initial(M2)
    return [(q1, q2) for q1 in _with_initial(M1) for q2 in Q2]


def simulates(M1: MixedAutomaton, M2: MixedAutomaton):
    """Greatest simulation of M1 by M2, or None when the initial states are
    not related by it.

    Refinement starts from the product of the reachable state sets and
    removes any pair (q1, q2) with an M1-transition that M2 either lacks or
    cannot match by lifting the current relation.  Pairs whose first state
    has no transitions are never removed.  Restricting to reachable states
    loses nothing: lifting only ever consults row states of positive-mass
    outcomes, which are reachable by construction.
    """
    return refine(_state_pairs(M1, M2), (M1.initial, M2.initial), _lifts(M1, M2))


def sim_equivalent(M1, M2) -> bool:
    return simulates(M1, M2) is not None and simulates(M2, M1) is not None


def bisimilar(M1: MixedAutomaton, M2: MixedAutomaton):
    """Greatest R such that both R and R⁻¹ are simulations, or None when it
    does not relate the initial states.  This is stronger than mutual
    simulation (sim_equivalent)."""
    return refine(_state_pairs(M1, M2), (M1.initial, M2.initial),
                  _lifts(M1, M2), _lifts(M2, M1))


# --- JSON ------------------------------------------------------------------------


def _action_to_json(a):
    # Guard-assignment actions are State objects; plain labels pass through.
    if isinstance(a, State):
        return {"state": a.as_dict()}
    return a


def _action_from_json(j):
    if isinstance(j, dict):
        return State(j["state"])
    return json_label("automaton", "action", j)


def ma_to_json(M: MixedAutomaton) -> dict:
    return {
        "alphabet": [_action_to_json(a) for a in M.alphabet],
        "domains": {v.domain.name: list(v.domain.values) for v in M.vars},
        "vars": [{"name": v.name, "domain": v.domain.name} for v in M.vars],
        "initial": M.initial.as_dict(),
        "delta": [
            {"state": q.as_dict(), "action": _action_to_json(a),
             "system": system_to_json(S)}
            for (q, a), S in sorted(
                M.delta.items(), key=lambda kv: (repr(kv[0][0]), action_key(kv[0][1]))
            )
        ],
    }


def ma_from_json(doc: dict) -> MixedAutomaton:
    try:
        vars = vars_from_json(doc["domains"], doc["vars"])
        delta = {}
        for e in doc["delta"]:
            key = (State(e["state"]), _action_from_json(e["action"]))
            delta[key] = system_from_json(e["system"])
        alphabet = [_action_from_json(a) for a in doc["alphabet"]]
        initial = State(doc["initial"])
        for _, value in initial.items():
            json_label("automaton", "initial", value)
    except DOCUMENT_ERRORS as exc:
        raise document_error("automaton", exc)
    return MixedAutomaton(alphabet, vars, initial, delta)
