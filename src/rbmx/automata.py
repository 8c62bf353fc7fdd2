"""Mixed automata: deterministic maps from (state, action) to mixed systems.

The automaton itself is deterministic — at most one target system per
(state, action) — and all the probabilistic/nondeterministic behavior lives
inside the target systems.  Composition synchronizes actions through a
pluggable action algebra.

Every simulation check, here and in the embeddings module, runs one matcher
over a View of each automaton kind: a pair (q1, q2) survives when every
move of q1 is answered, on its label, by some target of q2 that it lifts to
through the candidate relation.  greatest() numbers each View's states by
their position, bounds the candidate relation by core.MAX_OUTCOMES state
pairs and runs refine(), the one greatest-fixpoint loop, on those numbers:
R is held as rows of related state numbers, and each check appends the
pairs it found related, so refine() indexes a passing pair under them by
pair code and, after the first round, rechecks only the pairs indexed under
a pair that was just removed.  No State is hashed inside the loop.

Lifting is an exact coupling of the targets' masses inside R (Jonsson &
Larsen, LICS 1991; Segala, MIT 1995), and refine reaches it in two stages
that share one index.  A coupling can exist only if every positive-mass key
of either target has an R-related partner on the other side, so the
greatest relation that passes this cover test, which needs no flow, holds
the greatest simulation.  The cover stage refines to that relation, R0;
when R0 misses the initial pair, the answer is None.  The exact stage then
lifts by couplings from R0 on.  The cover test is exact when either target
has a single positive-mass key (a point), so that stage first rechecks only
the pairs of R0 with a move whose target is not a point against a state
with a target that is not a point on its label, and the pairs whose checks
found a pair it removed.  Point lifts are decided by the cover test there
too; only the others build a flow.

Each View compiles each target once into core.Masses.  SPA and PA
views key those by state number, build the allowed pairs from the rows and
call transport.covers or transport.coupling themselves.  For mixed
automata the allowed outcome pairs come from _allowed, which reads each
system's positive-mass rows compiled once into the system's own cache, so a
target met again in later rounds, or in a second check, compiles nothing.
It lists them with plain loops that ask the relation exactly what
all(any(...)) over the rows would ask, so the pairs each lift finds, and
refine's index of them, do not depend on how the rows are compiled.  The
cover test reads those pairs through transport.covers; an exact lift goes
through lift_check, which couples the target systems' outcome weights
through transport.feasible_transport.  The view numbers its states in a
dict keyed by their bindings, and each target carries that numbering, so
the relation both read is a lookup of both row states' numbers in the rows.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

from . import core
from .core import (
    Masses,
    MixedSystem,
    State,
    all_states,
    check_state,
    check_vars,
    compose,
    document_reader,
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
    vars_to_json,
)
from .errors import (
    CapExceeded,
    IncompatibleInitials,
    InconsistentSystem,
    MalformedSystem,
    MissingInit,
    NondeterministicJoin,
    NoTransition,
)
from .transport import covers, feasible_transport


def action_key(a):
    """Deterministic ordering for mixed-type action labels."""
    try:
        return (0,) + value_key(a)
    except MalformedSystem:
        return (1, repr(a))


class MixedAutomaton:
    """States are total assignments over ``vars``; ``delta`` maps (state,
    action) to a target system over the same variables, each over a domain
    with the automaton's values (core.domains_agree).

    ``initial`` and the states of ``delta`` may be partial (program
    fragments pin only some variables), but may bind only known variables to
    values of their domains; running requires a total initial state.  A
    ``provider`` callable (state, action) -> system-or-None serves
    transitions lazily, called by transition only with a state it has
    checked; results are cached into delta.  materialize() forces the whole
    table and drops the provider; every consumer that reads delta as a
    whole calls it first.
    """

    __slots__ = ("alphabet", "vars", "initial", "delta", "provider", "_doms")

    def __init__(self, alphabet, vars, initial, delta=None, provider=None):
        self.alphabet = tuple(sorted(set(alphabet), key=action_key))
        self.vars = norm_vars(vars)
        initial = State(initial or ())
        self._doms = doms = {v.name: v.domain for v in self.vars}
        check_state(doms, initial, "initial")
        self.initial = initial
        self.delta = {}
        self.provider = provider
        for (q, a), S in (delta or {}).items():
            if not isinstance(q, State):
                q = State(q)
            check_state(doms, q, "transition state %r", q)
            self._store(q, a, S)

    def _store(self, q: State, a, S: MixedSystem):
        """Store S at (q, a): S must bind the automaton's variables, each
        over a domain with the same typed values (core.check_vars)."""
        check_vars(self.vars, S, "automaton", "target at (%r, %r)", q, a)
        self.delta[(q, a)] = S
        return S

    def transition(self, q, a):
        """The target system at (q, a), or None when no transition exists.
        q is checked first as the states of delta are: delta and the
        provider's memos compare states with ==, which takes True for 1, so
        a value outside its variable's typed domain raises
        VariableSetMismatch before any lookup."""
        if not isinstance(q, State):
            q = State(q)
        check_state(self._doms, q, "transition state")
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
        """Force every (state, action) pair through the provider, the initial
        state's too when it is partial, then drop the provider.  A no-op
        when there is none."""
        if self.provider is None:
            return self
        partial = [] if self.is_total_state(self.initial) else [self.initial]
        count = 0
        for q in itertools.chain(self.states(), partial):
            for a in self.alphabet:
                count += 1
                if count > cap:
                    raise CapExceeded("materialization exceeds cap %d" % cap)
                self.transition(q, a)
        self.provider = None
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
    for (q1, a1), S1 in M1.materialize().delta.items():
        for (q2, a2), S2 in M2.materialize().delta.items():
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


def _masses(S: MixedSystem) -> Masses:
    """S's raw outcome weights, compiled once per system."""
    m = S._cache.get("masses")
    if m is None:
        m = S._cache["masses"] = Masses(S.pi)
    return m


def _rows(S: MixedSystem) -> list:
    """S's positive-mass outcomes with their rows, as (outcome, row) pairs
    in Masses order, compiled once per system."""
    rows = S._cache.get("rows")
    if rows is None:
        rows = S._cache["rows"] = [(o, S.rel[o]) for o in _masses(S).mass]
    return rows


def _rows_related(S1: MixedSystem, S2: MixedSystem, rel):
    """Whether outcomes o1 and o2 may be coupled: every state admitted by
    o1 has some related state admitted by o2.  verify_weighting's own
    reading of the rule, kept apart from lift_check's compiled loops."""
    return lambda o1, o2: all(any(rel(q1, q2) for q2 in S2.rel[o2]) for q1 in S1.rel[o1])


def _allowed(S1: MixedSystem, S2: MixedSystem, rel) -> list:
    """The outcome pairs a weighting may couple, listed left outcome by left
    outcome, in Masses order, from each system's rows as _rows compiles
    them once.  A pair is allowed when every state of the left row has a
    related state in the right row.  rel is asked about each left state's
    candidates in row order up to the first related one, and about no
    further left state once one has none: the calls of all(any(...)) over
    the two rows."""
    rows2 = _rows(S2)
    allowed = []
    for o1, row1 in _rows(S1):
        for o2, row2 in rows2:
            for q1 in row1:
                for q2 in row2:
                    if rel(q1, q2):
                        break
                else:
                    break
            else:
                allowed.append((o1, o2))
    return allowed


def lift_check(S1: MixedSystem, S2: MixedSystem, rho):
    """Decide whether the relation lifts between the two systems' weights.

    The raw (unconditioned) weights of the positive-mass outcomes must
    transport exactly across the outcome pairs whose rows are related
    (_allowed); the witness weighting is returned, or None when infeasible.
    """
    return feasible_transport(_masses(S1), _masses(S2), _allowed(S1, S2, _as_relation(rho)))


def verify_weighting(S1: MixedSystem, S2: MixedSystem, rho, w) -> bool:
    """Independent check of a lifting witness: nonnegative, projects to the
    raw weights on both sides, and couples only allowed outcome pairs."""
    ok = _rows_related(S1, S2, _as_relation(rho))
    if any(m < 0 for m in w.values()):
        return False
    if not all(ok(o1, o2) for (o1, o2), m in w.items() if m != 0):
        return False
    for o1 in S1.omega:
        if sum((m for (a, _), m in w.items() if a == o1), Fraction(0)) != S1.pi[o1]:
            return False
    for o2 in S2.omega:
        if sum((m for (_, b), m in w.items() if b == o2), Fraction(0)) != S2.pi[o2]:
            return False
    return True


# --- simulation ---------------------------------------------------------------


class View(NamedTuple):
    """What the matcher needs from an automaton of one kind.  Its states
    are numbered by their position in ``states``, and everything else reads
    those numbers: ``initial`` is the initial state itself, moves(i) gives
    the (label, target) pairs leaving state i and targets(j, label) the
    targets of state j on a label.

    Two lift tests say whether target t1 lifts to t2 through R.
    lifts(t1, t2, rows, found) asks for an exact coupling of their masses
    inside R.  covers(t1, t2, rows, found) asks only that the totals agree
    and that every positive-mass key of each side has an allowed partner on
    the other (transport.covers); it builds no flow.  Both allow the same
    key pairs, read from the rows compiled once per target.  A coupling
    covers, so covers passes whenever lifts does, and point(t), true when t
    has at most one positive-mass key, marks the targets on which the two
    agree: covers is exact when either side is a point.  A lift sees R as
    ``rows``, rows[x] the set of the other side's states related to x,
    reads it only by membership, and appends each pair (x, y) it found
    related to the list ``found``."""

    states: object
    initial: object
    moves: object
    targets: object
    lifts: object
    covers: object
    point: object


def refine(n1, n2, initial, match, back=None, exact=None):
    """The greatest relation R between the states 0..n1-1 and 0..n2-1 in
    which every pair (i, j) passes match(i, j, rows, found) and, when
    ``back`` is given, also back(j, i, cols, found); returned as its rows,
    rows[i] the set of the j related to i, or None when R does not hold the
    pair ``initial``.

    This is the one greatest-fixpoint loop behind every simulation check.
    match sees R as rows; back sees R⁻¹ as cols, cols[j] the set of the i
    related to j.  Each appends to ``found`` every pair it read as related:
    match the pairs (x, y) of R, back the pairs (y, x) of R⁻¹.  A pair is
    coded i * n2 + j.  Each round checks its pairs against that round's R,
    then removes the ones that failed; the first round checks every pair,
    in code order.  A passing pair is indexed under the code of each pair
    of R its checks found.  Matching reads R only by membership and is
    monotone in R, so a pair that passed passes again as long as every pair
    it found is still in R.  A later round therefore rechecks only the
    surviving pairs indexed under a pair the round before removed: R after
    each round is the same as if every pair had been rechecked, a dropped
    pair never comes back, and the loop may stop between rounds once
    ``initial`` is gone.  Which pairs a round checks follows from what the
    checks found, not from set iteration order.

    ``exact``, when given, is a second stage (match, back, inexact) run from
    the first stage's fixpoint R0, with back given exactly when the first
    stage has one.  Its checks must imply the first stage's: then the
    greatest relation they allow lies inside R0, and refining on from R0
    reaches it.  Its first round rechecks, in code order, the pairs (i, j)
    of R0 with j in inexact(i, rows[i]): the pairs whose second-stage check
    may fail where the first stage's passed.  Every other pair of R0 passes
    the second stage's check as long as the pairs its first-stage check
    found stay in R, so both stages share one index, and a pair is rechecked
    by the second stage's check once a pair it found is removed.
    """
    rows = [set(range(n2)) for _ in range(n1)]
    cols = None if back is None else [set(range(n1)) for _ in range(n2)]
    i0, j0 = initial
    users = defaultdict(list)  # pair code -> codes of the passing pairs that found it
    todo = range(n1 * n2)
    while j0 in rows[i0]:
        removed = []
        for c in todo:
            i, j = divmod(c, n2)
            found, flipped = [], []
            if match(i, j, rows, found) and (back is None or back(j, i, cols, flipped)):
                for x, y in found:
                    users[x * n2 + y].append(c)
                for y, x in flipped:
                    users[x * n2 + y].append(c)
            else:
                removed.append(c)
        if not removed:
            if exact is None:
                return rows
            match, back, inexact = exact
            exact = None
            todo = [i * n2 + j for i, row in enumerate(rows) for j in sorted(inexact(i, row))]
            continue
        for c in removed:
            i, j = divmod(c, n2)
            rows[i].remove(j)
            if cols is not None:
                cols[j].remove(i)
        todo = dict.fromkeys(c for d in removed for c in users.pop(d, ())
                             if c % n2 in rows[c // n2])
    return None


def _matcher(V1: View, V2: View, lift):
    """match for refine: every move of V1 at i is answered, on its label,
    by some target of V2 at j that it lifts to through R, by ``lift``."""
    moves, targets = V1.moves, V2.targets

    def match(i, j, rows, found):
        for a, t1 in moves(i):
            for t2 in targets(j, a):
                if lift(t1, t2, rows, found):
                    break
            else:
                return False
        return True

    return match


def _exact_lift(V: View):
    """V's exact lift test: covers where either target is a point, where it
    is exact, and lifts everywhere else."""
    lifts, covers, point = V.lifts, V.covers, V.point

    def lift(t1, t2, rows, found):
        if point(t1) or point(t2):
            return covers(t1, t2, rows, found)
        return lifts(t1, t2, rows, found)

    return lift


def _spread(V: View):
    """spread(i): the labels on which state i of V has a move to a target
    that is not a point, found once per state when first asked for."""
    memo = {}

    def spread(i):
        got = memo.get(i)
        if got is None:
            got = memo[i] = {a for a, t in V.moves(i) if not V.point(t)}
        return got

    return spread


def greatest(V1: View, V2: View, bisim=False):
    """The greatest simulation of V1 by V2 (with ``bisim``, the greatest R
    such that R and R⁻¹ are both simulations) over the product of their
    state sets, as a set of state pairs, or None when it misses the initial
    pair.  refine runs on the states' numbers, in two stages.  Raises
    CapExceeded, before building anything, when that product has more than
    core.MAX_OUTCOMES pairs.

    The cover stage matches with the views' covers.  A coupling inside R
    covers, so every simulation passes it, and its fixpoint R0 holds the
    greatest simulation: when R0 misses the initial pair, so does the
    answer.  The exact stage then lifts by exact couplings.  covers is exact
    where either target is a point, so a move of i is inexact against j only
    when its target is not a point and j has a target that is not a point
    on its label, and the exact stage first rechecks only the pairs of R0
    with an inexact move, either way for ``bisim``.  Its lifts go to covers
    where either target is a point, and to lifts only where neither is.
    """
    Q1, Q2 = V1.states, V2.states
    n = len(Q1) * len(Q2)
    if n > core.MAX_OUTCOMES:
        raise CapExceeded("the candidate relation would have %d state pairs, above the "
                          "cap of %d" % (n, core.MAX_OUTCOMES))
    spread1, spread2 = _spread(V1), _spread(V2)

    def inexact(i, js):
        labels = spread1(i)
        return [j for j in js if not labels.isdisjoint(spread2(j))] if labels else ()

    cover, cover_back = _matcher(V1, V2, V1.covers), None
    match, back = _matcher(V1, V2, _exact_lift(V1)), None
    if bisim:
        cover_back, back = _matcher(V2, V1, V2.covers), _matcher(V2, V1, _exact_lift(V2))
    rows = refine(len(Q1), len(Q2), (Q1.index(V1.initial), Q2.index(V2.initial)),
                  cover, cover_back, (match, back, inexact))
    if rows is None:
        return None
    return {(Q1[i], Q2[j]) for i, row in enumerate(rows) for j in row}


def _ma_relation(t1, t2, rows, found):
    """The two targets' systems, each of a (system, numbering) pair with
    the numbering of its own view, and the relation that reads R through
    the numbers of the row states on both sides, recording what it found."""
    (T1, num1), (T2, num2) = t1, t2

    def rho(q1, q2):
        x, y = num1[q1.pairs], num2[q2.pairs]
        if y in rows[x]:
            found.append((x, y))
            return True
        return False

    return T1, T2, rho


def _ma_lifts(t1, t2, rows, found):
    """lifts of a mixed automaton, by lift_check."""
    T1, T2, rho = _ma_relation(t1, t2, rows, found)
    return lift_check(T1, T2, rho) is not None


def _ma_covers(t1, t2, rows, found):
    """covers of a mixed automaton, over the outcome pairs lift_check
    allows."""
    T1, T2, rho = _ma_relation(t1, t2, rows, found)
    return covers(_masses(T1), _masses(T2), _allowed(T1, T2, rho))


def _ma_point(t):
    return len(_masses(t[0]).mass) <= 1


def _ma_view(M: MixedAutomaton) -> View:
    """The states are the reachable ones plus the initial state itself:
    partial initials (program fragments pin only some variables) are states
    of the refinement too.  They are numbered in a dict keyed by their
    bindings.  Moves are the transitions on each action, indexed once per
    state when the state is first asked for; each target carries the view's
    numbering."""
    Q = M.reachable()
    num = {q.pairs: i for i, q in enumerate(Q)}
    if M.initial.pairs not in num:
        Q = [M.initial] + Q
        num = {q.pairs: i for i, q in enumerate(Q)}
    index = [None] * len(Q)  # i -> ([(action, target)] in alphabet order, {action: (target,)})

    def out(i):
        got = index[i]
        if got is None:
            ms = []
            for a in M.alphabet:
                T = M.transition(Q[i], a)
                if T is not None:
                    ms.append((a, (T, num)))
            got = index[i] = (ms, {a: (t,) for a, t in ms})
        return got

    def moves(i):
        return out(i)[0]

    def targets(j, a):
        return out(j)[1].get(a, ())

    return View(Q, M.initial, moves, targets, _ma_lifts, _ma_covers, _ma_point)


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
    return greatest(_ma_view(M1), _ma_view(M2))


def sim_equivalent(M1, M2) -> bool:
    return simulates(M1, M2) is not None and simulates(M2, M1) is not None


def bisimilar(M1: MixedAutomaton, M2: MixedAutomaton):
    """Greatest R such that both R and R⁻¹ are simulations, or None when it
    does not relate the initial states.  This is stronger than mutual
    simulation (sim_equivalent)."""
    return greatest(_ma_view(M1), _ma_view(M2), bisim=True)


# --- JSON ------------------------------------------------------------------------


def _action_to_json(a):
    # Guard-assignment actions are State objects; plain labels pass through.
    if isinstance(a, State):
        return {"state": a.as_dict()}
    return a


def _state_from_json(field, binding):
    """The State a JSON object binds, each value a label of the field."""
    return State({n: json_label(field, v) for n, v in dict(binding).items()})


def _action_from_json(j):
    if isinstance(j, dict):
        return _state_from_json("action", j["state"])
    return json_label("action", j)


def ma_to_json(M: MixedAutomaton) -> dict:
    M.materialize()
    return {
        "alphabet": [_action_to_json(a) for a in M.alphabet],
        **vars_to_json(M.vars),
        "initial": M.initial.as_dict(),
        "delta": [
            {"state": q.as_dict(), "action": _action_to_json(a),
             "system": system_to_json(S)}
            for (q, a), S in sorted(
                M.delta.items(), key=lambda kv: (repr(kv[0][0]), action_key(kv[0][1]))
            )
        ],
    }


@document_reader("automaton")
def ma_from_json(doc: dict, table: dict) -> MixedAutomaton:
    """The automaton of a document.  Its targets are read in its table, so
    each repeated domain declaration is one Domain, the automaton's own
    among them, and each weight text is read once."""
    vars = vars_from_json(table, doc)
    delta = {}
    for e in doc["delta"]:
        key = (_state_from_json("state", e["state"]), _action_from_json(e["action"]))
        if key in delta:
            raise ValueError("delta gives state %r under action %r twice" % key)
        delta[key] = system_from_json(e["system"], _table=table)
    alphabet = [_action_from_json(a) for a in doc["alphabet"]]
    initial = _state_from_json("initial", doc["initial"])
    return MixedAutomaton(alphabet, vars, initial, delta)
