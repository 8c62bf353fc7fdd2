"""Seeded execution of dynamic programs against observation traces.

A run covers ``steps`` instants, at least one, numbered 0..steps-1.
Instant 0 is the initial state (the init declarations); each later instant
is reached by one transition, so a run makes steps-1 transitions and
consumes steps-1 observation records — obs[k] constrains the transition
into instant k+1.

The program runs as its independent parts (program_parts), one automaton
each, in lockstep: the parts touch disjoint variables, so the step's target
is the composition of the parts' targets, and it is never built.  Guards
are evaluated on the joint state and each part takes the guards it owns.
Observed variables are pinned by composing point systems into the target of
the part that owns them before conditioning; the per-step normalization
constant is the product of the parts' consistency weights, reported with a
consistency flag and the parts' outcome-space sizes next to the trace.  One
core.sample call draws the next joint state from all the parts' targets, as
it would from their composition.

Nothing of a step is built or walked twice within one call.  The parts
and their automata read each statement's variables and guard from the
program's statement table (syntax.statement_facts), filled at parse in one
walk per statement.  A step plan is made once per distinct guard assignment:
each part's action State, and each observed variable's Var and owning
part, from the statements that assignment selects (active_leaves).  So a
step walks no statements and builds no action States; it evaluates the
guards on a pre-environment of the previous instant only when the program
has guards, and reads the instant's visible values from one dict.  Every
part still steps through MixedAutomaton.transition, whose automaton builds
its leaf systems once and a target once per (pinned values, action)
(elaborate_dynamic).  An observed target is built once per (part target,
observed values) and kept with its cached consistency, conditioned
weights and sampler table; every record is still checked at every step.
The plans and both memos live only as long as the call; what stays on
the Program is what its declarations and statements compile to (Vars,
tied score tables, the statement table), the same for every run, so
run_program keeps no state between calls that could change a run.

A run keeps every instant, so a run whose steps times visible variables
(counting at least one) exceeds core.MAX_OUTCOMES is refused with
CapExceeded before its first step.
"""

import random
from typing import NamedTuple

from ..core import (MAX_OUTCOMES, State, compose, consistency, consistency_weight, sample,
                    state_join)
from ..errors import (CapExceeded, InconsistentSystem, MalformedSystem, MissingObservation,
                      NoTransition)
from .elaborate import (
    _pin,
    _var,
    active_leaves,
    elaborate_dynamic,
    eval_expr,
    observed_value,
    pre_name,
    program_guards,
    program_parts,
)
from .syntax import SObserve


class ProgramRun(NamedTuple):
    trace: tuple  # per instant: {variable: value} over the program's variables
    actions: tuple  # per transition: {guard label: bool}
    norms: tuple  # per transition: normalization constant of the conditioned prior
    flags: tuple  # per transition: consistency (always True on a completed run)
    sizes: tuple  # per transition: outcome-space size of each part's observed target


class _Plan(NamedTuple):
    """What a step does under one guard assignment, found once per run."""

    assign: dict  # {guard label: bool}
    actions: tuple  # per part: its action, a State over the guards it owns
    watched: tuple  # the Vars the active observe statements pin, first-seen order
    groups: tuple  # per part with a watched Var, in part order: (part, positions)


def _plan(p, parts, guards, values, owner) -> _Plan:
    assign = {label: v for (label, _), v in zip(guards, values)}
    actions = tuple(State({label: assign[label] for label, _ in program_guards(part)})
                    for part in parts)
    watched = tuple(_var(p, x) for x in dict.fromkeys(
        s.var for s in active_leaves(p, assign) if isinstance(s, SObserve)))
    at = {}
    for j, v in enumerate(watched):
        at.setdefault(owner[v.name], []).append(j)
    return _Plan(assign, actions, watched, tuple(sorted((i, tuple(js)) for i, js in at.items())))


def run_program(p, obs=None, steps=1, seed=0, resolver="lex") -> ProgramRun:
    """Elaborate and run: trace of visible states, one guard assignment,
    normalization constant, consistency flag and part sizes per transition.
    steps, the number of instants, is at least 1; obs is a sequence of
    records, one per transition.  A run whose steps times visible
    variables (counting at least one) exceeds core.MAX_OUTCOMES is refused
    with CapExceeded before its first step."""
    if steps < 1:
        raise MalformedSystem("a run covers at least one instant, not %r" % (steps,))
    parts = program_parts(p)
    machines = [elaborate_dynamic(part) for part in parts]
    names = [frozenset(v.name for v in M.vars) for M in machines]
    owner = {nm: i for i, own in enumerate(names) for nm in own}
    prog_vars = [nm for nm in p.vars if nm in owner]
    kept = steps * max(1, len(prog_vars))
    if kept > MAX_OUTCOMES:
        raise CapExceeded(
            "a run of %d instants over %d visible variables would keep %d values, "
            "above the cap of %d" % (steps, len(prog_vars), kept, MAX_OUTCOMES))
    guards = program_guards(p)
    rng = random.Random(seed)
    plans = {}  # guard values, in label order -> step plan
    observed = {}  # (part target, observed (variable, value) pairs) -> observed target

    states = [M.initial for M in machines]
    q = State()
    for qi in states:
        q = state_join(q, qi)
    trace = [_visible(q, prog_vars)]
    actions = []
    norms = []
    flags = []
    sizes = []
    for n in range(1, steps):
        values = ()
        if guards:
            env = {pre_name(k): v for k, v in q.items()}
            got = []
            for label, g in guards:
                try:
                    got.append(eval_expr(p, g, env))
                except KeyError:
                    raise InconsistentSystem(
                        "step %d: guard %s reads a variable the previous instant "
                        "did not determine" % (n, label)
                    )
            values = tuple(got)
        plan = plans.get(values)
        if plan is None:
            plan = plans[values] = _plan(p, parts, guards, values, owner)
        targets = []
        for M, qi, a in zip(machines, states, plan.actions):
            S = M.transition(qi, a)
            if S is None:
                raise NoTransition("step %d: no transition from %r" % (n, q))
            targets.append(S)
        if plan.watched:
            rec = obs[n - 1] if obs is not None and n - 1 < len(obs) else None
            if rec is None:
                raise MissingObservation(
                    "step %d: no observation record for %r"
                    % (n, [v.name for v in plan.watched])
                )
            vals = [observed_value(v, rec) for v in plan.watched]
            for i, at in plan.groups:
                key = (targets[i], tuple((plan.watched[j].name, vals[j]) for j in at))
                S = observed.get(key)
                if S is None:
                    S = observed[key] = compose(
                        targets[i], *(_pin(plan.watched[j], vals[j]) for j in at))
                targets[i] = S
        norm = 1
        for S in targets:
            ok, _ = consistency(S)
            if not ok:
                raise InconsistentSystem(
                    "step %d: observations contradict the model" % n
                )
            # an unobserved part weighs 1; the product stays a Fraction
            w = consistency_weight(S)
            norm = w if norm == 1 else norm if w == 1 else norm * w
        norms.append(norm)
        flags.append(True)
        actions.append(dict(plan.assign))
        sizes.append(tuple(len(S.omega) for S in targets))
        _, q = sample(targets, rng, resolver)
        states = [q.restrict(own) for own in names]
        trace.append(_visible(q, prog_vars))
    return ProgramRun(tuple(trace), tuple(actions), tuple(norms), tuple(flags),
                      tuple(sizes))


def _visible(q: State, prog_vars):
    values = dict(q.items())
    return {nm: values[nm] for nm in prog_vars if nm in values}
