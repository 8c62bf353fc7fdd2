"""Kernels over mixed systems, Bayesian networks of kernels, incremental
sampling, and exact scoring.

A MixedKernel maps input states (over its in-variables) to mixed systems
over its out-variables, checked as a mixed automaton checks its states and
targets (core.check_state, core.check_vars): every input before its table
lookup, and each system once, as it enters the kernel's table.  A
BayesianNetwork wires kernels into an acyclic bipartite graph: variables
feed kernels, kernels emit disjoint sets of variables.  Each network
finds its structure once, on first use, in one pass over its kernels
(BayesianNetwork.order), and bn_validate, min_vars, bn_sample (with no
structure work per draw), seq_compose and the readers read it.  Scoring
takes, per kernel, the outer probability of the state's out-part given
its in-part, and multiplies.

Scoring reads compiled entries through compiled keys.  A kernel's score
table at an input is {output value tuple: (outer mass, its numerator, its
denominator)}, or None when the kernel is inconsistent there, and each
kernel keeps its tables, by input values, in a table store that kernels
may share.  score_tables is the one builder: one pass over a system's
rows gives the table at every input value tuple they reach.  A
conditional kernel fills its store from one pass over the joint it
conditions; a tied prior's store holds its distribution's rows
(rblang.elaborate.prior_kernel); any other table is built, at the first
score of its input, from the system apply gives there.
MixedKernel.score_table checks the input first, on every call, so a
filled store never answers an input that apply refuses.  A
BayesianNetwork compiles, once, one key getter per kernel over a full
state's values: the kernel's input values followed by its output values,
each part in the kernel's own name order.  The network keeps, per
kernel, the factor entry of each key met so far, so every later score of
that key is one getter call and one dict lookup per kernel.

Conditioning convention: the conditional of a system on Y is the kernel
that pins Y to the given input, conditions the system on that, and exposes
only the remaining variables.  The input variables are not re-exposed on
the output side, which keeps kernel in/out sets disjoint and makes
marginal;conditional a well-formed two-kernel network.  Scores are
unaffected: the pinned part contributes exactly the marginal factor.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from operator import itemgetter
from typing import NamedTuple

from .core import (
    EMPTY_STATE,
    Domain,
    MixedSystem,
    State,
    _state_of_pairs,
    all_states,
    check_state,
    check_vars,
    compose,
    compress,
    consistency,
    document_reader,
    domains_agree,
    marginal,
    merge_vars,
    nil_system,
    norm_vars,
    sample,
    system_from_json,
    system_to_json,
    vars_from_json,
    vars_to_json,
)
from .errors import (
    InconsistentSystem,
    MalformedSystem,
    MissingInit,
    NotIncremental,
    UnknownVariable,
    VariableSetMismatch,
)

ABSENT = (Fraction(0), 0, 1)  # the score-table entry of an output no row admits


class MixedKernel:
    """A map from states over in_vars to mixed systems over out_vars.

    ``mapping`` is either a dict {State: MixedSystem} or a callable; callables
    are evaluated on demand and cached, and every analysis operation may
    enumerate the full (finite) input space.  in_vars and out_vars must be
    disjoint.  An input binds exactly in_vars, each to a value of its own
    domain and type (core.check_state), checked by apply and score_table
    before their lookups, where True would find the entry of 1.  A system
    binds exactly out_vars over agreeing domains (core.check_vars),
    checked once as it enters the table: a dict's systems, with their
    keys, at construction, a callable's when first computed, and kept only
    if it passes.
    ``_scores``, internal, is the store score_table keeps its tables in, a
    new one when not given; one given may hold tables already, compiled
    from the kernel's law, at input value tuples score_table checks.
    """

    __slots__ = ("name", "in_vars", "out_vars", "_doms", "_table", "_fn", "_scores")

    def __init__(self, in_vars, out_vars, mapping, name=None, *, _scores=None):
        self.in_vars = norm_vars(in_vars)
        self.out_vars = norm_vars(out_vars)
        overlap = {v.name for v in self.in_vars} & {v.name for v in self.out_vars}
        if overlap:
            raise VariableSetMismatch("kernel in/out variables overlap: %r" % sorted(overlap))
        self.name = name
        self._doms = {v.name: v.domain for v in self.in_vars}
        self._table = {}
        self._fn = mapping if callable(mapping) else None
        if self._fn is None:
            for q, S in mapping.items():
                self._enter(self._input(q), S)
        self._scores = {} if _scores is None else _scores

    @property
    def in_names(self):
        return tuple(v.name for v in self.in_vars)

    @property
    def out_names(self):
        return tuple(v.name for v in self.out_vars)

    def inputs(self):
        return all_states(self.in_vars)

    def _input(self, q) -> State:
        """q as a State, checked as an input of the kernel."""
        if not isinstance(q, State):
            q = State(q)
        if q.names != self.in_names:
            raise VariableSetMismatch("kernel %s expects input over %r, got %r"
                                      % (self.name, list(self.in_names), q))
        check_state(self._doms, q, "input of kernel %s", self.name)
        return q

    def _enter(self, q: State, S: MixedSystem) -> MixedSystem:
        """Keep S at the checked input q once it binds the out variables."""
        check_vars(self.out_vars, S, "kernel", "system of kernel %s at %r", self.name, q)
        self._table[q] = S
        return S

    def apply(self, q_in) -> MixedSystem:
        return self._system_at(self._input(q_in))

    def _system_at(self, q: State) -> MixedSystem:
        """The system at the checked input q."""
        S = self._table.get(q)
        if S is None:
            if self._fn is None:
                raise VariableSetMismatch("kernel %s has no entry for %r" % (self.name, q))
            S = self._enter(q, self._fn(q))
        return S

    def score_table(self, in_values):
        """The score table at the input whose values, in in_names order, are
        in_values: the exact outer mass of each output value tuple (values
        in out_names order) as (mass, its numerator, its denominator), or
        None when the output system is inconsistent there.  Output tuples
        no row admits are absent, so their mass is 0.

        The input is checked as apply checks it, on every call and before
        the store is read, since the store's keys take True for 1.  The
        tables are kept by in_values in the kernel's store, _scores, which
        kernels whose tables depend only on in_values may share, and which
        conditional and rblang.elaborate.prior_kernel fill from the
        kernel's law.  A table not in the store is built by score_tables
        from apply's system at the input; an input whose apply raises keeps
        nothing, so it raises every time."""
        # _doms holds in_names, in order
        q = _state_of_pairs(tuple(zip(self._doms, in_values)))
        check_state(self._doms, q, "input of kernel %s", self.name)
        try:
            return self._scores[in_values]
        except KeyError:
            pass
        table = self._scores[in_values] = score_tables(self._system_at(q), ()).get(())
        return table

    def __repr__(self):
        return "MixedKernel(%s: %s -> %s)" % (
            self.name or "?", list(self.in_names) or "ε", list(self.out_names) or "ε")


def kernel_from_system(S: MixedSystem, name=None) -> MixedKernel:
    """View a system as the input-less kernel constantly producing it."""
    return MixedKernel((), S.vars, {EMPTY_STATE: S}, name=name)


def kernel_to_system(K: MixedKernel) -> MixedSystem:
    """Inverse of kernel_from_system for input-less kernels."""
    if K.in_vars:
        raise VariableSetMismatch("kernel has inputs %r" % list(K.in_names))
    return K.apply(EMPTY_STATE)


def score_tables(S: MixedSystem, in_names) -> dict:
    """The score table of S given the variables in_names, sorted names of
    S's variables, at every input value tuple (values in in_names order)
    that S's rows reach, in one pass over the rows.  Each row state splits
    into its input values and its output values, those of S's other
    variables in name order.  At input values y, an outcome whose row has
    a state over y weighs in once, and adds its weight to each output
    value tuple of those states; the table maps each such tuple to its
    mass over the weight of those outcomes, as (mass, its numerator, its
    denominator), or is None when that weight is 0.  This is the table of
    the system S pinned to y, conditioned, with in_names hidden: what
    conditional's kernel gives at y.  With no in_names it is S's own table
    at the input (), absent when no row admits a state.  Input values no
    row reaches are absent."""
    at = [i for i, v in enumerate(S.vars) if v.name in in_names]
    in_of = _key_getter(at)
    out_of = _key_getter([i for i in range(len(S.vars)) if i not in at])
    masses = {}  # input values -> {output values: summed weight}
    reached = {}  # input values -> weight of the outcomes reaching them
    for o in S.omega:
        w = S.pi[o]
        ys = set()
        for q in S.rel[o]:
            values = [v for _, v in q.pairs]
            y = in_of(values)
            ys.add(y)
            m = masses.setdefault(y, {})
            out = out_of(values)
            m[out] = m.get(out, 0) + w
        for y in ys:
            reached[y] = reached.get(y, 0) + w
    return {y: score_entries({out: f / reached[y] for out, f in m.items()}) if reached[y]
            else None for y, m in masses.items()}


def score_entries(masses) -> dict:
    """The score table of {output value tuple: mass}: each mass as (mass,
    its numerator, its denominator), which bn_score multiplies."""
    return {out: (f, f.numerator, f.denominator) for out, f in masses.items()}


def point_system(Y, q_Y) -> MixedSystem:
    """The deterministic system forcing the variables Y to the state q_Y:
    one certain outcome admitting exactly that state."""
    Yv = norm_vars(Y)
    if not Yv:
        return nil_system()
    return MixedSystem({"1": Fraction(1)}, Yv, {"1": [q_Y]})


def conditional(S: MixedSystem, Y) -> MixedKernel:
    """The kernel sending q_Y to S with Y pinned at q_Y, exposing the other
    variables.  Inputs outside the reachable values of Y yield inconsistent
    output systems.  Each output is compressed, and built only when apply
    asks for it; the kernel's score tables are filled here, by score_tables
    in one pass over S, at every input S's rows reach, and score_table
    checks each input before it reads them."""
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

    return MixedKernel(Yv, Zv, fn, name="cond_%s" % ",".join(names),
                       _scores=score_tables(S, names))


class Score(NamedTuple):
    """An exact score with its per-kernel factor trace.  A factor of None
    marks a kernel whose input made it inconsistent; that can only appear
    when some other factor is zero (otherwise scoring raises)."""

    value: Fraction
    factors: tuple


def _key_getter(positions):
    """The function taking a tuple of values to the tuple of those at
    positions, in that order."""
    if not positions:
        return lambda values: ()
    if len(positions) == 1:
        i = positions[0]
        return lambda values: (values[i],)
    return itemgetter(*positions)


class _Structure(NamedTuple):
    """What BayesianNetwork.order finds in its one pass over the kernels."""

    producers: dict  # variable name -> the kernels outputting it, in kernel order
    problems: tuple  # the violations bn_validate reports, () when well-formed
    minimal: dict  # minimal variable name -> its Domain, in name order
    kernels: tuple  # the dependency order, round by round; () on a cycle
    cycle: tuple  # the cycle's kernel names, the first again at its end; or ()


class BayesianNetwork:
    """Kernels wired through their variables into a directed bipartite graph.

    Each kernel K gets edges x→K for x ∈ in(K) and K→x for x ∈ out(K).
    Extra input edges may be declared to constrain the dependency order,
    which order builds once, beyond the kernels' own input sets.
    Variables produced by no kernel are the network's minimal variables
    and must be supplied at sampling time; ``sources`` optionally flags
    some of them as observation feeds.
    A variable carrying different domains across the kernels and
    ``variables`` raises DomainMismatch.

    For bn_score the network compiles, per kernel, the getter of its key
    (input values, then output values) from a full state's values, and
    owns a dict from key to factor entry, filled as scores meet keys.  A
    kernel in two networks has one entry dict in each, and one table store
    behind both.
    """

    __slots__ = ("kernels", "extra_in", "sources", "vars", "var_names", "_entries",
                 "_structure")

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

        merged = merge_vars(*(K.in_vars + K.out_vars for K in ks), norm_vars(variables))
        self.vars = tuple(sorted(merged, key=lambda v: v.name))
        self.var_names = tuple(v.name for v in self.vars)
        # per kernel: the getter of its key, its input values then its
        # output values, from a full state's values (which follow
        # var_names); its number of inputs; its output domains; and this
        # network's factor entries by key, filled as bn_score meets them
        at = {n: i for i, n in enumerate(self.var_names)}
        self._entries = tuple(
            (K, _key_getter([at[n] for n in K.in_names + K.out_names]), len(K.in_vars),
             tuple(v.domain for v in K.out_vars), {})
            for K in ks)
        self._structure = None

    def in_set(self, K) -> frozenset:
        return frozenset(K.in_names) | self.extra_in.get(K.name, frozenset())

    def order(self) -> _Structure:
        """The network's structure, found on the first call in one pass
        over the kernels and kept.  A kernel follows every producer of its
        in_set (graphlib.TopologicalSorter), so double producers close
        cycles too.  kernels lists the kernels round by round, each round
        in name order: a round holds the kernels whose predecessors all sit
        in earlier rounds, less those that output nothing."""
        if self._structure is not None:
            return self._structure
        producers, problems = {}, []
        for K in self.kernels:
            for x in K.out_names:
                ps = producers.setdefault(x, [])
                if ps:
                    problems.append("variable %r is output by both %s and %s"
                                    % (x, ps[0].name, K.name))
                ps.append(K)
        known = set(self.var_names)
        for x in self.sources:
            if x in producers:
                problems.append("source variable %r has an incoming edge from %s"
                                % (x, producers[x][0].name))
            if x not in known:
                problems.append("source variable %r is not a network variable" % x)
        kernel_names = {K.name for K in self.kernels}
        for k, names in self.extra_in.items():
            if k not in kernel_names:
                problems.append("extra inputs name %r, no kernel of the network" % k)
            for x in sorted(names - known):
                problems.append("extra input %r of kernel %s is not a network variable" % (x, k))
        sorter = TopologicalSorter(
            {K: [P for x in self.in_set(K) for P in producers.get(x, ())]
             for K in self.kernels})
        emitting = {K for ps in producers.values() for K in ps}
        kernels, cycle = [], ()
        try:
            sorter.prepare()
        except CycleError as e:
            cycle = tuple(K.name for K in e.args[1])
            problems.append("graph has a cycle through kernels %s" % reprlib.repr(list(cycle)))
        else:
            while sorter:
                ready = sorter.get_ready()
                sorter.done(*ready)
                kernels += sorted(emitting.intersection(ready), key=lambda K: K.name)
        minimal = {v.name: v.domain for v in self.vars if v.name not in producers}
        self._structure = _Structure(producers, tuple(problems), minimal, tuple(kernels), cycle)
        return self._structure

    def min_vars(self):
        """The variables no kernel outputs, in name order (order())."""
        return tuple(self.order().minimal)

    def __repr__(self):
        return "BayesianNetwork(%d kernels, X=%s)" % (len(self.kernels), list(self.var_names))


def bn_validate(N: BayesianNetwork):
    """The structural problems N.order() keeps, empty when the network is
    well-formed: each variable has at most one producer, a source has none
    and is a network variable, every extra_in key names a kernel and every
    extra input is a network variable, and the kernels close no cycle,
    named by a few of its kernels."""
    return list(N.order().problems)


def bn_sample(N: BayesianNetwork, init, rng, resolver="lex") -> State:
    """Sample one full state by walking the kernel order N.order() keeps,
    as it keeps the minimal variables and problems, with no structure
    work per draw.  ``init`` must cover exactly the minimal variables
    (else MissingInit), each with a value of its typed domain (else
    VariableSetMismatch, core.check_state).  A network with problems is
    refused with NotIncremental naming them.  A kernel made inconsistent
    by its sampled input aborts with the kernel's name attached."""
    if not isinstance(init, State):
        init = State(init)
    s = N.order()
    # both name tuples are sorted, so they are equal exactly when the sets are
    if init.names != tuple(s.minimal):
        raise MissingInit("init must cover exactly %r, got %r"
                          % (list(s.minimal), list(init.names)))
    check_state(s.minimal, init, "init")
    if s.problems:
        raise NotIncremental("cannot sample the network: %s" % "; ".join(s.problems))

    assigned = init.as_dict()
    for K in s.kernels:
        q_in = State({n: assigned[n] for n in K.in_names})
        S = K.apply(q_in)
        try:
            _, q_out = sample(S, rng, resolver)
        except InconsistentSystem:
            raise InconsistentSystem("kernel %s is inconsistent at input %r"
                                     % (K.name, q_in), kernel=K.name)
        assigned.update(q_out.as_dict())
    return State(assigned)


def bn_score(N: BayesianNetwork, q) -> Score:
    """Product over kernels of the outer probability of the state's out-part
    given its in-part.  Kernels that are inconsistent at their input
    contribute no factor; that is only tolerated when another factor is
    zero, otherwise InconsistentSystem propagates.

    Each kernel's compiled getter takes its key, input values then output
    values, from the state's values, and the key is looked up once in the
    network's entries for that kernel.  A key not met before gets its
    entry from MixedKernel.score_table at the input values: the table's
    entry for the output values, ABSENT (mass 0) when no row admits them,
    or None when the kernel is inconsistent at that input.  score_table
    checks the input values then, and again each time, since nothing is
    kept for a bad input.  Output values outside their typed domains, or
    that cannot be hashed, score 0 (ABSENT) before the table is read, and
    keep no entry, so scoring off-domain states does not grow the entries.
    The product is taken over the entries' integer numerators and
    denominators, with one Fraction at the end."""
    if not isinstance(q, State):
        q = State(q)
    pairs = q.pairs
    names, values = zip(*pairs) if pairs else ((), ())
    # both name tuples are sorted, so they are equal exactly when the sets are
    if names != N.var_names:
        raise VariableSetMismatch(
            "state covers %r, network has %r" % (list(names), list(N.var_names))
        )
    factors = []
    bad = None
    num = den = 1
    for K, key_of, n_in, out_domains, entries in N._entries:
        key = key_of(values)
        try:
            entry = entries[key]
        except (KeyError, TypeError):  # TypeError: a value that cannot be hashed
            table = K.score_table(key[:n_in])
            out = key[n_in:]
            if all(map(Domain.__contains__, out_domains, out)):
                entry = entries[key] = None if table is None else table.get(out, ABSENT)
            else:
                entry = None if table is None else ABSENT
        if entry is None:
            factors.append((K.name, None))
            if bad is None:
                bad = K
            continue
        f, n, d = entry
        factors.append((K.name, f))
        num *= n
        den *= d
    if bad is not None and num != 0:
        raise InconsistentSystem(
            "kernel %s is inconsistent at input %r" % (bad.name, q), kernel=bad.name
        )
    return Score(Fraction(num, den), tuple(factors))


def bn_equivalent_p(N1: BayesianNetwork, N2: BayesianNetwork) -> bool:
    """Equal score at every full state.  Requires the same variable sets
    (domains compared as value sets)."""
    if set(N1.var_names) != set(N2.var_names):
        raise VariableSetMismatch("networks differ in variables: %r vs %r"
                                  % (list(N1.var_names), list(N2.var_names)))
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
    all be a left kernel's outputs or a left network's variables, each
    produced or minimal.  Returns the combined network, refused with its
    problems (bn_validate)."""
    if isinstance(first, BayesianNetwork):
        left_ks, avail = list(first.kernels), set(first.var_names)
    else:
        left_ks, avail = [first], set(first.out_names)
    right_ks = list(second.kernels) if isinstance(second, BayesianNetwork) else [second]
    for K in right_ks:
        missing = set(K.in_names) - avail
        if missing:
            raise VariableSetMismatch(
                "kernel %s needs %r, not produced upstream" % (K.name, sorted(missing))
            )
    sources = set().union(*(part.sources for part in (first, second)
                            if isinstance(part, BayesianNetwork)))
    N = BayesianNetwork(left_ks + right_ks, sources=sources)
    problems = bn_validate(N)
    if problems:
        raise VariableSetMismatch("; ".join(problems))
    return N


# --- JSON ---------------------------------------------------------------


def kernel_to_json(K: MixedKernel) -> dict:
    """The kernel's name, in/out variable names and full input table."""
    return {
        "name": K.name,
        "in": list(K.in_names),
        "out": list(K.out_names),
        "table": [[q.as_dict(), system_to_json(K.apply(q))] for q in K.inputs()],
    }


def bn_to_json(N: BayesianNetwork) -> dict:
    return {
        **vars_to_json(N.vars, "variables"),
        "sources": sorted(N.sources),
        "kernels": [kernel_to_json(K) for K in N.kernels],
    }


def _names_from_json(field, names):
    """names, read from the given field of a network document: a list of
    strings, else ValueError naming the field."""
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError("%s is not a list of names: %s" % (field, reprlib.repr(names)))
    return names


@document_reader("network")
def bn_from_json(doc: dict, table: dict) -> BayesianNetwork:
    """The network of a document; its kernels' systems are read in its
    table, as ma_from_json reads an automaton's targets."""
    vbyname = {v.name: v for v in vars_from_json(table, doc, "variables")}

    def lookup(kernel, names):
        unknown = [n for n in names if n not in vbyname]
        if unknown:
            raise ValueError("kernel %r names unknown variables %r" % (kernel, unknown))
        return [vbyname[n] for n in names]

    kernels = []
    for kd in doc["kernels"]:
        name = kd["name"]
        if not isinstance(name, str):
            raise ValueError("kernel name %s is not a string" % reprlib.repr(name))
        ins = lookup(name, _names_from_json("the 'in' of kernel %r" % name, kd["in"]))
        outs = lookup(name, _names_from_json("the 'out' of kernel %r" % name, kd["out"]))
        doms = {v.name: v.domain for v in ins}
        systems = {}
        for binding, sdoc in kd["table"]:
            q = State(binding)
            if q.names != tuple(sorted(doms)) or not all(x in doms[n] for n, x in q.items()):
                raise ValueError("kernel %r has a table entry for %s, not an input over %r"
                                 % (name, reprlib.repr(binding), sorted(doms)))
            if q in systems:
                raise ValueError("kernel %r gives input %r twice" % (name, q))
            systems[q] = system_from_json(sdoc, _table=table)
        kernels.append(MixedKernel(ins, outs, systems, name=name))
    sources = _names_from_json("'sources'", doc.get("sources", []))
    N = BayesianNetwork(kernels, sources=sources, variables=list(vbyname.values()))
    problems = bn_validate(N)
    if problems:
        raise ValueError("; ".join(problems))
    return N
