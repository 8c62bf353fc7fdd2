"""Kernels over mixed systems, Bayesian networks of kernels, incremental
sampling, and exact scoring.

A MixedKernel maps input states (over its in-variables) to mixed systems
over its out-variables.  A BayesianNetwork wires kernels into an acyclic
bipartite graph: variables feed kernels, kernels emit disjoint sets of
variables.  Sampling walks the network in dependency order; scoring takes,
per kernel, the outer probability of the state's out-part given its
in-part, and multiplies.

Conditioning convention: the conditional of a system on Y is the kernel
that pins Y to the given input, conditions the system on that, and exposes
only the remaining variables.  The input variables are not re-exposed on
the output side, which keeps kernel in/out sets disjoint and makes
marginal;conditional a well-formed two-kernel network.  Scores are
unaffected: the pinned part contributes exactly the marginal factor.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .core import (
    DOCUMENT_ERRORS,
    DiscreteProb,
    EMPTY_STATE,
    MixedSystem,
    State,
    Var,
    all_states,
    compose,
    compress,
    consistency,
    document_error,
    domains_agree,
    marginal,
    nil_system,
    norm_vars,
    outer,
    sample,
    system_from_json,
    system_to_json,
    vars_from_json,
)
from .errors import (
    InconsistentSystem,
    MalformedSystem,
    MissingInit,
    NotIncremental,
    UnknownVariable,
    VariableSetMismatch,
)


class MixedKernel:
    """A map from states over in_vars to mixed systems over out_vars.

    ``mapping`` is either a dict {State: MixedSystem} or a callable; callables
    are evaluated on demand and cached, and every analysis operation may
    enumerate the full (finite) input space.  in_vars and out_vars must be
    disjoint, and every produced system must have exactly the out variables.
    """

    __slots__ = ("name", "in_vars", "out_vars", "_table", "_fn")

    def __init__(self, in_vars, out_vars, mapping, name=None):
        self.in_vars = norm_vars(in_vars)
        self.out_vars = norm_vars(out_vars)
        overlap = {v.name for v in self.in_vars} & {v.name for v in self.out_vars}
        if overlap:
            raise VariableSetMismatch(
                "kernel in/out variables overlap: %r" % sorted(overlap)
            )
        if callable(mapping):
            self._table = {}
            self._fn = mapping
        else:
            self._table = {State(k) if not isinstance(k, State) else k: v
                           for k, v in mapping.items()}
            self._fn = None
        self.name = name

    @property
    def in_names(self):
        return tuple(v.name for v in self.in_vars)

    @property
    def out_names(self):
        return tuple(v.name for v in self.out_vars)

    def inputs(self):
        return all_states(self.in_vars)

    def apply(self, q_in) -> MixedSystem:
        if not isinstance(q_in, State):
            q_in = State(q_in)
        if q_in.names != self.in_names:
            raise VariableSetMismatch(
                "kernel %s expects input over %r, got %r"
                % (self.name, list(self.in_names), q_in)
            )
        S = self._table.get(q_in)
        if S is None:
            if self._fn is None:
                raise VariableSetMismatch(
                    "kernel %s has no entry for %r" % (self.name, q_in)
                )
            S = self._fn(q_in)
            self._table[q_in] = S
        if S.var_names != self.out_names:
            raise VariableSetMismatch(
                "kernel %s produced variables %r, expected %r"
                % (self.name, list(S.var_names), list(self.out_names))
            )
        return S

    def __repr__(self):
        return "MixedKernel(%s: %s -> %s)" % (
            self.name or "?",
            list(self.in_names) or "ε",
            list(self.out_names) or "ε",
        )


def kernel_from_system(S: MixedSystem, name=None) -> MixedKernel:
    """View a system as the input-less kernel constantly producing it."""
    return MixedKernel((), S.vars, {EMPTY_STATE: S}, name=name)


def kernel_to_system(K: MixedKernel) -> MixedSystem:
    """Inverse of kernel_from_system for input-less kernels."""
    if K.in_vars:
        raise VariableSetMismatch("kernel has inputs %r" % list(K.in_names))
    return K.apply(EMPTY_STATE)


def point_system(Y, q_Y) -> MixedSystem:
    """The deterministic system forcing the variables Y to the state q_Y:
    one certain outcome admitting exactly that state."""
    Yv = norm_vars(Y)
    if not Yv:
        return nil_system()
    if not isinstance(q_Y, State):
        q_Y = State(q_Y)
    return MixedSystem({"1": Fraction(1)}, Yv, {"1": [q_Y]})


def conditional(S: MixedSystem, Y) -> MixedKernel:
    """The kernel sending q_Y to S with Y pinned at q_Y, exposing the other
    variables.  Inputs outside the reachable values of Y yield inconsistent
    output systems.  Each output is compressed."""
    names = sorted(y if isinstance(y, str) else y.name for y in Y)
    unknown = set(names) - set(S.var_names)
    if unknown:
        raise UnknownVariable("not variables of the system: %r" % sorted(unknown))
    Yv = tuple(v for v in S.vars if v.name in set(names))
    Zv = tuple(v for v in S.vars if v.name not in set(names))
    znames = [v.name for v in Zv]

    def fn(q_Y, _S=S, _Yv=Yv, _zn=tuple(znames)):
        pinned = compose(point_system(_Yv, q_Y), _S)
        return compress(marginal(pinned, _zn))

    return MixedKernel(Yv, Zv, fn, name="cond_%s" % ",".join(names))


class Score(NamedTuple):
    """An exact score with its per-kernel factor trace.  A factor of None
    marks a kernel whose input made it inconsistent; that can only appear
    when some other factor is zero (otherwise scoring raises)."""

    value: Fraction
    factors: tuple


class BayesianNetwork:
    """Kernels wired through their variables into a directed bipartite graph.

    Each kernel K gets edges x→K for x ∈ in(K) and K→x for x ∈ out(K).
    Extra input edges may be declared to constrain the sampling order
    beyond the kernels' own input sets.  Variables produced by no kernel
    are the network's minimal variables and must be supplied at sampling
    time; ``sources`` optionally flags some of them as observation feeds.
    """

    __slots__ = ("kernels", "extra_in", "sources", "vars")

    def __init__(self, kernels, extra_in=None, sources=(), variables=()):
        ks = list(kernels)
        for i, K in enumerate(ks):
            if K.name is None:
                K.name = "K%d" % i
        names = [K.name for K in ks]
        if len(set(names)) != len(names):
            raise VariableSetMismatch("duplicate kernel names: %r" % names)
        self.kernels = tuple(ks)
        self.extra_in = {k: frozenset(v) for k, v in (extra_in or {}).items()}
        self.sources = frozenset(sources)

        doms = {}
        for K in ks:
            for v in itertools.chain(K.in_vars, K.out_vars):
                prev = doms.get(v.name)
                if prev is not None and not domains_agree(prev, v.domain):
                    raise VariableSetMismatch(
                        "variable %r carries different domains across kernels" % v.name
                    )
                doms.setdefault(v.name, v.domain)
        for v in norm_vars(variables):
            prev = doms.get(v.name)
            if prev is not None and not domains_agree(prev, v.domain):
                raise VariableSetMismatch(
                    "variable %r carries different domains across kernels" % v.name
                )
            doms.setdefault(v.name, v.domain)
        self.vars = tuple(sorted((Var(n, d) for n, d in doms.items()),
                                 key=lambda v: v.name))

    @property
    def var_names(self):
        return tuple(v.name for v in self.vars)

    def in_set(self, K) -> frozenset:
        return frozenset(K.in_names) | self.extra_in.get(K.name, frozenset())

    def producer_of(self, name):
        for K in self.kernels:
            if name in K.out_names:
                return K
        return None

    def min_vars(self):
        produced = {n for K in self.kernels for n in K.out_names}
        return tuple(n for n in self.var_names if n not in produced)

    def __repr__(self):
        return "BayesianNetwork(%d kernels, X=%s)" % (
            len(self.kernels),
            list(self.var_names),
        )


def bn_validate(N: BayesianNetwork):
    """Check the structural conditions; returns a list of violation strings,
    empty when the network is well-formed."""
    problems = []

    produced = {}
    for K in N.kernels:
        for x in K.out_names:
            if x in produced:
                problems.append(
                    "variable %r is output by both %s and %s"
                    % (x, produced[x], K.name)
                )
            else:
                produced[x] = K.name
        if not set(K.in_names) <= N.in_set(K):
            problems.append("kernel %s input set exceeds its in-edges" % K.name)

    for x in N.sources:
        if x in produced:
            problems.append(
                "source variable %r has an incoming edge from %s" % (x, produced[x])
            )
        if x not in N.var_names:
            problems.append("source variable %r is not a network variable" % x)

    # cycle check over the bipartite digraph
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
        # depth-first with an explicit stack of (node, unvisited successors),
        # so long chains do not hit the recursion limit
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

    for v in list(succ):
        if color[v] == WHITE and reaches_cycle(v):
            problems.append("graph has a cycle through %r" % (v,))
            break

    return problems


def bn_sample(N: BayesianNetwork, init, rng, resolver="lex") -> State:
    """Sample one full state by walking the network incrementally: at each
    round, run every kernel whose inputs are all assigned and which outputs
    something, in name order.  ``init`` must cover exactly the minimal
    variables.  A kernel made inconsistent by its sampled input aborts with
    the kernel's name attached.
    """
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


def bn_score(N: BayesianNetwork, q) -> Score:
    """Product over kernels of the outer probability of the state's out-part
    given its in-part.  Kernels that are inconsistent at their input
    contribute no factor; that is only tolerated when another factor is
    zero, otherwise InconsistentSystem propagates."""
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


def bn_equivalent_p(N1: BayesianNetwork, N2: BayesianNetwork) -> bool:
    """Equal score at every full state.  Requires the same variable sets
    (domains compared as value sets)."""
    if set(N1.var_names) != set(N2.var_names):
        raise VariableSetMismatch(
            "networks differ in variables: %r vs %r"
            % (list(N1.var_names), list(N2.var_names))
        )
    d2 = {v.name: v.domain for v in N2.vars}
    for v in N1.vars:
        if not domains_agree(v.domain, d2[v.name]):
            raise VariableSetMismatch("variable %r has different domains" % v.name)
    for q in all_states(N1.vars):
        if bn_score(N1, q).value != bn_score(N2, q).value:
            return False
    return True


def bayes_split(S: MixedSystem, Y) -> BayesianNetwork:
    """Split S into (marginal on Y) feeding (conditional on Y): a two-kernel
    network scoring exactly like S at every state."""
    flag, _ = consistency(S)
    if not flag:
        raise InconsistentSystem("cannot split an inconsistent system")
    names = sorted(y if isinstance(y, str) else y.name for y in Y)
    head = kernel_from_system(compress(marginal(S, names)), name="marg_%s" % ",".join(names))
    return seq_compose(head, conditional(S, names))


def seq_compose(first, second) -> BayesianNetwork:
    """Chain kernels/networks left to right: the right operand's inputs must
    all be produced (or fed) by the left.  Returns the combined network."""
    left_ks = list(first.kernels) if isinstance(first, BayesianNetwork) else [first]
    right_ks = list(second.kernels) if isinstance(second, BayesianNetwork) else [second]
    avail = {n for K in left_ks for n in K.out_names}
    if isinstance(first, BayesianNetwork):
        avail |= set(first.min_vars())
    for K in right_ks:
        missing = set(K.in_names) - avail
        if missing:
            raise VariableSetMismatch(
                "kernel %s needs %r, not produced upstream" % (K.name, sorted(missing))
            )
    sources = set()
    for part in (first, second):
        if isinstance(part, BayesianNetwork):
            sources |= part.sources
    N = BayesianNetwork(left_ks + right_ks, sources=sources)
    problems = bn_validate(N)
    if problems:
        raise VariableSetMismatch("; ".join(problems))
    return N


# --- JSON ---------------------------------------------------------------


def bn_to_json(N: BayesianNetwork) -> dict:
    doms = {}
    for v in N.vars:
        doms[v.domain.name] = list(v.domain.values)
    return {
        "domains": doms,
        "variables": [{"name": v.name, "domain": v.domain.name} for v in N.vars],
        "sources": sorted(N.sources),
        "kernels": [
            {
                "name": K.name,
                "in": list(K.in_names),
                "out": list(K.out_names),
                "table": [
                    [q.as_dict(), system_to_json(K.apply(q))] for q in K.inputs()
                ],
            }
            for K in N.kernels
        ],
    }


def bn_from_json(doc: dict) -> BayesianNetwork:
    try:
        vbyname = {v.name: v for v in vars_from_json(doc["domains"], doc["variables"])}
        specs = []
        for kd in doc["kernels"]:
            table = {State(binding): system_from_json(sdoc) for binding, sdoc in kd["table"]}
            specs.append((kd["name"], kd["in"], kd["out"], table))
        sources = doc.get("sources", ())
    except DOCUMENT_ERRORS as exc:
        raise document_error("network", exc)

    def lookup(kernel, names):
        unknown = [n for n in names if n not in vbyname]
        if unknown:
            raise MalformedSystem("kernel %r names unknown variables %r" % (kernel, unknown))
        return [vbyname[n] for n in names]

    kernels = [MixedKernel(lookup(name, ins), lookup(name, outs), table, name=name)
               for name, ins, outs, table in specs]
    return BayesianNetwork(kernels, sources=sources, variables=list(vbyname.values()))
