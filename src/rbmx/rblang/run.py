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

Nothing of a step is built twice within one call.  Each part's automaton
builds its leaf systems once and a target once per (pinned values, action)
(elaborate_dynamic).  An observed target is built once per (part target,
observed values) and kept with its cached consistency, conditioned weights
and sampler table; every record is still checked at every step.  Both memos
live only as long as the call, so run_program keeps no state between calls.
"""

import random
from typing import NamedTuple

from ..core import State, compose, consistency, consistency_weight, sample, state_join
from ..errors import InconsistentSystem, MalformedSystem, MissingObservation, NoTransition
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
from .syntax import SObserve, statements


class ProgramRun(NamedTuple):
    trace: tuple  # per instant: {variable: value} over the program's variables
    actions: tuple  # per transition: {guard label: bool}
    norms: tuple  # per transition: normalization constant of the conditioned prior
    flags: tuple  # per transition: consistency (always True on a completed run)
    sizes: tuple  # per transition: outcome-space size of each part's observed target


def run_program(p, obs=None, steps=1, seed=0, resolver="lex") -> ProgramRun:
    """Elaborate and run: trace of visible states, one guard assignment,
    normalization constant, consistency flag and part sizes per transition.
    steps, the number of instants, is at least 1; obs is a sequence of
    records, one per transition."""
    if steps < 1:
        raise MalformedSystem("a run covers at least one instant, not %r" % (steps,))
    parts = program_parts(p)
    machines = [elaborate_dynamic(part) for part in parts]
    labels = [[label for label, _ in program_guards(part)] for part in parts]
    names = [[v.name for v in M.vars] for M in machines]
    guards = program_guards(p)
    leaves = statements(p.body)
    owner = {v.name: i for i, M in enumerate(machines) for v in M.vars}
    prog_vars = [nm for nm in p.vars if nm in owner]
    rng = random.Random(seed)
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
        assign = {}
        env = {pre_name(k): v for k, v in q.items()}
        for label, g in guards:
            try:
                assign[label] = eval_expr(p, g, env)
            except KeyError:
                raise InconsistentSystem(
                    "step %d: guard %s reads a variable the previous instant "
                    "did not determine" % (n, label)
                )
        targets = []
        for M, qi, own in zip(machines, states, labels):
            S = M.transition(qi, State({label: assign[label] for label in own}))
            if S is None:
                raise NoTransition("step %d: no transition from %r" % (n, q))
            targets.append(S)
        watched = list(dict.fromkeys(
            s.var for s in active_leaves(leaves, assign) if isinstance(s, SObserve)))
        if watched:
            rec = obs[n - 1] if obs is not None and n - 1 < len(obs) else None
            if rec is None:
                raise MissingObservation(
                    "step %d: no observation record for %r" % (n, watched)
                )
            points = [[] for _ in machines]
            for x in watched:
                v = _var(p, x)
                points[owner[x]].append((v, observed_value(v, rec)))
            for i, pts in enumerate(points):
                if pts:
                    key = (targets[i], tuple((v.name, val) for v, val in pts))
                    if key not in observed:
                        observed[key] = compose(targets[i], *(_pin(v, val) for v, val in pts))
                    targets[i] = observed[key]
        norm = 1
        for S in targets:
            ok, _ = consistency(S)
            if not ok:
                raise InconsistentSystem(
                    "step %d: observations contradict the model" % n
                )
            norm *= consistency_weight(S)
        norms.append(norm)
        flags.append(True)
        actions.append(dict(assign))
        sizes.append(tuple(len(S.omega) for S in targets))
        _, q = sample(targets, rng, resolver)
        states = [q.restrict(own) for own in names]
        trace.append(_visible(q, prog_vars))
    return ProgramRun(tuple(trace), tuple(actions), tuple(norms), tuple(flags),
                      tuple(sizes))


def _visible(q: State, prog_vars):
    return {nm: q[nm] for nm in prog_vars if nm in q}
