"""Seeded execution of dynamic programs against observation traces.

A run covers ``steps`` instants numbered 0..steps-1.  Instant 0 is the
initial state (the init declarations); each later instant is reached by one
transition, so a run makes steps-1 transitions and consumes steps-1
observation records — obs[k] constrains the transition into instant k+1.
Observed variables are pinned by composing point systems into the step's
target before conditioning and sampling; the per-step normalization constant
of the conditioned distribution and a consistency flag are reported next to
the trace.
"""

import random
from typing import NamedTuple

from ..core import State, compose, consistency, consistency_weight, sample
from ..errors import InconsistentSystem, MissingObservation, NoTransition
from .elaborate import (
    active_leaves,
    elaborate_dynamic,
    eval_expr,
    observe_point,
    pre_name,
    program_guards,
)
from .syntax import SObserve, statements


class ProgramRun(NamedTuple):
    trace: tuple  # per instant: {variable: value} over the program's variables
    actions: tuple  # per transition: {guard label: bool}
    norms: tuple  # per transition: normalization constant of the conditioned prior
    flags: tuple  # per transition: consistency (always True on a completed run)


def run_program(p, obs=None, steps=1, seed=0, resolver="lex") -> ProgramRun:
    """Elaborate and run: trace of visible states, one guard assignment,
    normalization constant, and consistency flag per transition.  obs is a
    sequence of records, one per transition."""
    M = elaborate_dynamic(p)
    guards = program_guards(p)
    leaves = statements(p.body)
    prog_vars = [nm for nm in p.vars if nm in {v.name for v in M.vars}]
    rng = random.Random(seed)

    q = M.initial
    trace = [_visible(q, prog_vars)]
    actions = []
    norms = []
    flags = []
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
        a = State(assign)
        S = M.transition(q, a)
        if S is None:
            raise NoTransition("step %d: no transition from %r" % (n, q))
        watched = list(dict.fromkeys(
            s.var for s in active_leaves(leaves, assign) if isinstance(s, SObserve)))
        if watched:
            rec = obs[n - 1] if obs is not None and n - 1 < len(obs) else None
            if rec is None:
                raise MissingObservation(
                    "step %d: no observation record for %r" % (n, watched)
                )
            points = [observe_point(p, x, rec) for x in watched]
            S = compose(S, *points)
        ok, _ = consistency(S)
        if not ok:
            flags.append(False)
            raise InconsistentSystem(
                "step %d: observations contradict the model" % n
            )
        norms.append(consistency_weight(S))
        flags.append(True)
        actions.append(dict(assign))
        _, q = sample(S, rng, resolver)
        trace.append(_visible(q, prog_vars))
    return ProgramRun(tuple(trace), tuple(actions), tuple(norms), tuple(flags))


def _visible(q: State, prog_vars):
    return {nm: q[nm] for nm in prog_vars if nm in q}
