"""Mixed systems: exact finite probability coupled with nondeterministic choice.

A MixedSystem bundles three things:

* a private outcome space with exact rational weights (the probabilistic part),
* a set of visible variables, each ranging over a finite ordered domain,
* a relation listing, per outcome, which visible states that outcome admits
  (the nondeterministic part).

Outcomes whose row is empty are "inconsistent": they admit no visible state.
Most queries first renormalize the weights on the consistent outcomes; a
system with zero consistent mass supports no queries at all and the
operations below raise InconsistentSystem for it.

Everything is exact: probabilities are fractions.Fraction throughout and
floats are rejected at the door.  All objects are immutable after
construction (caches aside), so they can be shared freely.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import (
    BadPartition,
    CapExceeded,
    DomainMismatch,
    InconsistentSystem,
    MalformedSystem,
    UnknownVariable,
)


def rat(x) -> Fraction:
    """Coerce to an exact rational.  Accepts Fraction, int, and strings like
    "3/5", "7", or "0.25" (decimal strings convert exactly).  Floats are
    refused: they would silently poison exact comparisons downstream.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise MalformedSystem(
            "refusing float %r in exact arithmetic; pass a string or Fraction" % x
        )
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedSystem("not a rational: %r (%s)" % (x, exc))


def format_rat(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def value_key(v):
    """Total order over values of mixed type: booleans, then integers, then
    symbols.  bool is tested before int because bool subclasses int."""
    if isinstance(v, bool):
        return (0, v)
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, str):
        return (2, v)
    raise MalformedSystem("unsupported domain value %r" % (v,))


class Domain:
    """A named, ordered finite set of values.

    The declared order of ``values`` is the tie-breaking order used by the
    lexicographic resolver and by canonical row sorting; it is part of the
    domain's identity for (==) but not for domains_agree().
    """

    __slots__ = ("name", "values", "index")

    def __init__(self, name, values):
        values = tuple(values)
        if not values:
            raise MalformedSystem("domain %r has no values" % name)
        index = {}
        for i, v in enumerate(values):
            value_key(v)  # rejects unsupported payload types
            if v in index:
                raise MalformedSystem("domain %r repeats value %r" % (name, v))
            index[v] = i
        self.name = name
        self.values = values
        self.index = index

    def __contains__(self, v):
        return v in self.index

    def __eq__(self, other):
        return (
            isinstance(other, Domain)
            and self.name == other.name
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.name, self.values))

    def __repr__(self):
        return "Domain(%r, %r)" % (self.name, list(self.values))


def domains_agree(d1: Domain, d2: Domain) -> bool:
    """Same carrier set of values; names and declared order may differ."""
    return set(d1.values) == set(d2.values)


class Var(NamedTuple):
    name: str
    domain: Domain


def norm_vars(vars) -> tuple:
    """Vars sorted by name, from Var entries or (name, domain) pairs whose
    domain may be a plain value list (it is then named "D_<name>").  Raises
    MalformedSystem when a name is declared twice or one domain name is
    bound to two different value lists."""
    out = []
    seen = set()
    domain_names = {}
    for name, dom in vars:
        if not isinstance(dom, Domain):
            dom = Domain("D_%s" % name, dom)
        if name in seen:
            raise MalformedSystem("variable %r declared twice" % name)
        if domain_names.setdefault(dom.name, dom).values != dom.values:
            raise MalformedSystem(
                "domain name %r bound to two different value lists" % dom.name
            )
        seen.add(name)
        out.append(Var(name, dom))
    out.sort(key=lambda v: v.name)
    return tuple(out)


class State:
    """An immutable assignment of values to variable names.

    States hash and compare by their (name, value) pairs, so they work as
    set members and dict keys.  The empty state is the unit of state_join.
    """

    __slots__ = ("pairs",)

    def __init__(self, bindings=()):
        if isinstance(bindings, State):
            object.__setattr__(self, "pairs", bindings.pairs)
            return
        if not isinstance(bindings, dict):
            bindings = dict(bindings)
        pairs = tuple(sorted(bindings.items(), key=lambda kv: kv[0]))
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, *_):
        raise AttributeError("State is immutable")

    @property
    def names(self):
        return tuple(k for k, _ in self.pairs)

    def __getitem__(self, name):
        for k, v in self.pairs:
            if k == name:
                return v
        raise KeyError(name)

    def get(self, name, default=None):
        for k, v in self.pairs:
            if k == name:
                return v
        return default

    def __contains__(self, name):
        return any(k == name for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)

    def items(self):
        return self.pairs

    def as_dict(self):
        return dict(self.pairs)

    def restrict(self, names):
        """Keep only the bindings whose name is in ``names``."""
        keep = frozenset(names)
        return State({k: v for k, v in self.pairs if k in keep})

    def __eq__(self, other):
        return isinstance(other, State) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        if not self.pairs:
            return "State(ε)"
        return "State(%s)" % ", ".join("%s=%r" % kv for kv in self.pairs)


EMPTY_STATE = State()


def _state_of_pairs(pairs) -> State:
    """A State over a tuple of pairs already sorted by distinct names."""
    q = object.__new__(State)
    object.__setattr__(q, "pairs", pairs)
    return q


def state_join(q1: State, q2: State):
    """Merge two states when they agree on every shared name; None when they
    clash.  Disjoint states always join.  On a shared name the value of q1
    is kept."""
    a, b = q1.pairs, q2.pairs
    if not b:
        return q1
    if not a:
        return q2
    merged = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka, kb = a[i][0], b[j][0]
        if ka < kb:
            merged.append(a[i])
            i += 1
        elif kb < ka:
            merged.append(b[j])
            j += 1
        elif a[i][1] != b[j][1]:
            return None
        else:
            merged.append(a[i])
            i += 1
            j += 1
    return _state_of_pairs(tuple(merged) + a[i:] + b[j:])


def states_compatible(q1: State, q2: State) -> bool:
    return state_join(q1, q2) is not None


class DiscreteProb:
    """Exact finite probability: an ordered tuple of outcome ids and a weight
    per id, nonnegative and summing to exactly 1."""

    __slots__ = ("omega", "weights")

    def __init__(self, omega, weights):
        omega = tuple(omega)
        if not omega:
            raise MalformedSystem("outcome space is empty")
        if len(set(omega)) != len(omega):
            raise MalformedSystem("duplicate outcome ids")
        known = set(omega)
        w = {}
        for o in omega:
            if o not in weights:
                raise MalformedSystem("missing weight for outcome %r" % (o,))
            f = rat(weights[o])
            if f < 0:
                raise MalformedSystem("negative weight %s for outcome %r" % (f, o))
            w[o] = f
        for o in weights:
            if o not in known:
                raise MalformedSystem("weight for unknown outcome %r" % (o,))
        total = sum(w.values(), Fraction(0))
        if total != 1:
            raise MalformedSystem("weights sum to %s, not 1" % total)
        self.omega = omega
        self.weights = w

    def support(self):
        return tuple(o for o in self.omega if self.weights[o] > 0)

    def __repr__(self):
        return "DiscreteProb(%s)" % ", ".join(
            "%r: %s" % (o, format_rat(self.weights[o])) for o in self.omega
        )


def _as_prob(prob) -> DiscreteProb:
    if isinstance(prob, DiscreteProb):
        return prob
    if isinstance(prob, dict):
        return DiscreteProb(tuple(prob.keys()), prob)
    omega, weights = prob
    return DiscreteProb(omega, weights)


class MixedSystem:
    """A validated, canonical mixed system.

    ``vars`` is kept sorted by variable name; every relation row is deduped
    and sorted by the tuple of domain indices (so row[0] is the
    lexicographically-first admissible state).  Construction validates all
    structural invariants and raises MalformedSystem on violation.
    """

    __slots__ = ("prob", "vars", "rel", "_cache")

    def __init__(self, prob, vars, rel):
        prob = _as_prob(prob)

        vars = norm_vars(vars)
        vnames = [v.name for v in vars]
        indexes = [v.domain.index for v in vars]

        # normalize rel into {outcome: sorted tuple of states}
        if isinstance(rel, dict):
            pairs = [(o, q) for o, row in rel.items() for q in row]
        else:
            pairs = [(o, q) for o, q in rel]

        # rows[o] maps each state to its row key, the tuple of its domain
        # indices; insertion order dedupes and keeps the first copy
        rows = {o: {} for o in prob.omega}
        for o, q in pairs:
            row = rows.get(o)
            if row is None:
                raise MalformedSystem("relation mentions unknown outcome %r" % (o,))
            if not isinstance(q, State):
                q = State(q)
            if q in row:
                continue  # validated when first seen
            qp = q.pairs
            if len(qp) != len(vnames) or [k for k, _ in qp] != vnames:
                raise MalformedSystem(
                    "state %r does not bind exactly the variables %r" % (q, vnames)
                )
            # both lists are sorted by name, so the values line up with indexes
            key = tuple(map(dict.get, indexes, [v for _, v in qp]))
            if None in key:
                name, val = qp[key.index(None)]
                raise MalformedSystem("value %r outside domain of %r" % (val, name))
            row[q] = key

        self.prob = prob
        self.vars = vars
        self.rel = {o: tuple(sorted(row, key=row.__getitem__)) for o, row in rows.items()}
        self._cache = {}

    # --- small accessors ---------------------------------------------------

    @property
    def omega(self):
        return self.prob.omega

    @property
    def pi(self):
        return self.prob.weights

    @property
    def var_names(self):
        return tuple(v.name for v in self.vars)

    def domain_of(self, name) -> Domain:
        for v in self.vars:
            if v.name == name:
                return v.domain
        raise UnknownVariable("no variable %r in %r" % (name, list(self.var_names)))

    def row(self, o):
        return self.rel[o]

    def rowset(self, o) -> frozenset:
        sets = self._cache.get("rowsets")
        if sets is None:
            sets = {w: frozenset(r) for w, r in self.rel.items()}
            self._cache["rowsets"] = sets
        return sets[o]

    def __repr__(self):
        return "MixedSystem(|Ω|=%d, X=%s)" % (len(self.omega), list(self.var_names))


def new_system(prob, vars, rel) -> MixedSystem:
    """Validating constructor; see MixedSystem."""
    return MixedSystem(prob, vars, rel)


def nil_system() -> MixedSystem:
    """The empty-variable system with one certain outcome admitting the empty
    state.  Neutral for compose()."""
    return MixedSystem({"1": Fraction(1)}, (), {"1": [EMPTY_STATE]})


def all_states(vars):
    """Iterate every assignment over the given (name, Domain) sequence, in
    canonical (domain-index, name-sorted) order."""
    vs = sorted(vars, key=lambda v: v[0])
    names = [v[0] for v in vs]
    doms = [v[1].values for v in vs]
    for combo in itertools.product(*doms):
        yield State(zip(names, combo))


# --- consistency and conditioning ------------------------------------------


def consistency(S: MixedSystem):
    """(flag, consistent_set): the set of outcomes admitting at least one
    state, and whether that set carries positive weight."""
    got = S._cache.get("consistency")
    if got is None:
        cset = frozenset(o for o in S.omega if S.rel[o])
        weight = sum((S.pi[o] for o in cset), Fraction(0))
        got = (weight > 0, cset, weight)
        S._cache["consistency"] = got
    flag, cset, _ = got
    return flag, cset


def consistency_weight(S: MixedSystem) -> Fraction:
    consistency(S)
    return S._cache["consistency"][2]


def conditioned(S: MixedSystem) -> DiscreteProb:
    """Weights renormalized on the consistent outcomes; inconsistent outcomes
    keep weight 0.  Raises InconsistentSystem when nothing is consistent."""
    got = S._cache.get("conditioned")
    if got is None:
        flag, cset = consistency(S)
        if not flag:
            raise InconsistentSystem("system has no consistent mass")
        z = consistency_weight(S)
        got = DiscreteProb(
            S.omega, {o: (S.pi[o] / z if o in cset else Fraction(0)) for o in S.omega}
        )
        S._cache["conditioned"] = got
    return got


# --- sampling ----------------------------------------------------------------


def _lex_resolver(rng, row):
    return row[0]


def _uniform_resolver(rng, row):
    return row[rng.randrange(len(row))]


RESOLVERS = {
    "lex": _lex_resolver,
    "lexicographic": _lex_resolver,
    "uniform": _uniform_resolver,
}


def _sampler_tables(S):
    tab = S._cache.get("sampler")
    if tab is None:
        pt = conditioned(S)
        ids = [o for o in pt.omega if pt.weights[o] > 0]
        denom = lcm(*(pt.weights[o].denominator for o in ids))
        acc = 0
        cum = []
        for o in ids:
            w = pt.weights[o]
            acc += w.numerator * (denom // w.denominator)
            cum.append(acc)
        tab = (denom, ids, cum)
        S._cache["sampler"] = tab
    return tab


def sample(S: MixedSystem, rng, resolver="lex"):
    """Draw (outcome, state).  The outcome is exact: a uniform integer below
    the common denominator of the conditioned weights, inverted through the
    cumulative table.  The state is picked from the outcome's row by the
    resolver ("lex", "uniform", or a callable (rng, row) -> state).
    """
    denom, ids, cum = _sampler_tables(S)
    k = rng.randrange(denom)
    o = ids[bisect_right(cum, k)]
    row = S.rel[o]
    pick = RESOLVERS.get(resolver, resolver)
    if not callable(pick):
        raise ValueError("unknown resolver %r" % (resolver,))
    return o, pick(rng, row)


# --- probabilistic semantics -------------------------------------------------


def _as_pred(A):
    """Normalize a state property to (test, extension-or-None)."""
    if callable(A):
        return A, None
    states = [q if isinstance(q, State) else State(q) for q in A]
    sset = frozenset(states)
    return (lambda q: q in sset), states


def outer(S: MixedSystem, A) -> Fraction:
    """Conditioned mass of the outcomes that can reach A: some state of the
    row satisfies the property."""
    pt = conditioned(S)
    test, _ = _as_pred(A)
    return sum(
        (pt.weights[o] for o in S.omega if any(test(q) for q in S.rel[o])),
        Fraction(0),
    )


def inner(S: MixedSystem, A) -> Fraction:
    """Conditioned mass of the outcomes whose row contains *all* of A.

    Literal universal quantification over the members of A; for singleton A
    this coincides with outer().  inner(∅) is 1 by vacuous quantification —
    deliberate, if surprising.  A callable property is first extended over
    the full state space (exponential in the number of variables).
    """
    pt = conditioned(S)
    test, ext = _as_pred(A)
    if ext is None:
        ext = [q for q in all_states(S.vars) if test(q)]
    need = frozenset(ext)
    total = Fraction(0)
    for o in S.omega:
        if need <= S.rowset(o):
            total += pt.weights[o]
    return total


def likelihood(S: MixedSystem, A) -> Fraction:
    """Largest conditioned weight of a *behavior* that can reach A; 0 when
    none can.  A behavior is a class of outcomes sharing the same row, so
    redundant bookkeeping outcomes never split the maximum and the answer
    agrees across equivalent presentations of the same system."""
    pt = conditioned(S)
    classes = {}
    for o in S.omega:
        w = pt.weights[o]
        if w > 0:
            key = S.rowset(o)
            classes[key] = classes.get(key, Fraction(0)) + w
    test, _ = _as_pred(A)
    best = Fraction(0)
    for row, w in classes.items():
        if w > best and any(test(q) for q in row):
            best = w
    return best


def forall_score(S: MixedSystem, A) -> Fraction:
    """Conditioned mass of outcomes whose *entire row* satisfies the property
    (the "guaranteed" reading).  Not the same as inner(): this quantifies
    over the row, inner() quantifies over A."""
    pt = conditioned(S)
    test, _ = _as_pred(A)
    return sum(
        (
            pt.weights[o]
            for o in S.omega
            if S.rel[o] and all(test(q) for q in S.rel[o])
        ),
        Fraction(0),
    )


# --- compression and equivalence ---------------------------------------------


def compress(S: MixedSystem) -> MixedSystem:
    """Merge outcomes with identical rows, summing their weights.  The first
    member of each class donates its id, so compressing a compressed system
    is the identity.  Queries are unchanged by compression."""
    classes = {}
    for o in S.omega:
        classes.setdefault(S.rel[o], []).append(o)
    omega = []
    weights = {}
    rel = {}
    for row, members in classes.items():
        rep = members[0]
        omega.append(rep)
        weights[rep] = sum((S.pi[o] for o in members), Fraction(0))
        rel[rep] = row
    return MixedSystem(DiscreteProb(omega, weights), S.vars, rel)


def _signature(S: MixedSystem) -> Counter:
    return Counter(
        (S.pi[o], S.rowset(o)) for o in S.omega if S.pi[o] > 0
    )


def equivalent(S1: MixedSystem, S2: MixedSystem) -> bool:
    """True when the systems are the same up to renaming outcomes: same
    variables (domains compared as value sets), and the compressed systems
    have matching (weight, row) multisets over their positive-mass classes."""
    if set(S1.var_names) != set(S2.var_names):
        return False
    doms2 = {v.name: v.domain for v in S2.vars}
    for v in S1.vars:
        if not domains_agree(v.domain, doms2[v.name]):
            return False
    return _signature(compress(S1)) == _signature(compress(S2))


# --- marginal and composition --------------------------------------------------


def marginal(S: MixedSystem, Y) -> MixedSystem:
    """Forget every variable outside Y, projecting each row pointwise.  The
    result is returned uncompressed; compress() it if you care."""
    names = [y if isinstance(y, str) else y.name for y in Y]
    keep = set(names)
    unknown = keep - set(S.var_names)
    if unknown:
        raise UnknownVariable("not variables of the system: %r" % sorted(unknown))
    new_vars = [v for v in S.vars if v.name in keep]
    rel = {o: [q.restrict(keep) for q in S.rel[o]] for o in S.omega}
    return MixedSystem(S.prob, new_vars, rel)


MAX_OUTCOMES = 1 << 20  # largest outcome space compose() and grafting build


def check_outcome_cap(sizes, what):
    """Raise CapExceeded when the product of the outcome-space sizes exceeds
    MAX_OUTCOMES; called before anything of that size is allocated."""
    total = 1
    for n in sizes:
        total *= n
    if total > MAX_OUTCOMES:
        raise CapExceeded(
            "%s would have %d outcomes, above the cap of %d" % (what, total, MAX_OUTCOMES)
        )


def compose(S1: MixedSystem, S2: MixedSystem, *rest) -> MixedSystem:
    """Parallel composition: product outcome space, product weights, rows
    joined pairwise where compatible.  Shared variables must carry the same
    domain (as a value set).  May produce an inconsistent system even from
    consistent operands — that is the point of conditioning.

    Any number of operands is composed in one depth-first pass over the
    product: each prefix's joined row is computed once and carried down to
    its extensions, and one system is built at the end.  Outcome ids nest to
    the left, ((o1, o2), o3), and the result is the very system of the
    binary fold compose(compose(S1, S2), S3): the same omega order, weights,
    rows and variables.  Raises CapExceeded before building anything when
    the product has more than MAX_OUTCOMES outcomes.
    """
    systems = (S1, S2) + rest
    merged = {v.name: v.domain for v in S1.vars}
    for S in systems[1:]:
        for v in S.vars:
            dom = merged.get(v.name)
            if dom is None:
                merged[v.name] = v.domain
            elif not domains_agree(dom, v.domain):
                raise DomainMismatch(
                    "shared variable %r has different domains" % v.name
                )
    check_outcome_cap((len(S.omega) for S in systems), "composition")

    omega = []
    weights = {}
    rel = {}
    # depth-first over the product with one open branch per operand, each
    # yielding (id, weight, joined row) children; an explicit stack keeps the
    # number of operands clear of the interpreter's recursion limit
    stack = [iter([(o, S1.pi[o], S1.rel[o]) for o in S1.omega])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(stack) < len(systems):
            stack.append(_extend(node, systems[len(stack)]))
        else:
            o, w, row = node
            omega.append(o)
            weights[o] = w
            rel[o] = row
    return MixedSystem(DiscreteProb(omega, weights), [Var(n, d) for n, d in merged.items()],
                       rel)


def _extend(node, S):
    """The children of a product prefix (id, weight, row) under operand S."""
    oid, w, row = node
    pi, rel = S.pi, S.rel
    for o in S.omega:
        joined = []
        for q1 in row:
            for q2 in rel[o]:
                j = state_join(q1, q2)
                if j is not None:
                    joined.append(j)
        yield (oid, o), w * pi[o], joined


# --- polarized scoring ----------------------------------------------------------


class PolarizedRelation:
    """A base relation together with a partition of the outcomes into blocks,
    each block tagged "angel" (scored existentially) or "demon" (scored
    universally over the row)."""

    __slots__ = ("rel", "blocks")

    def __init__(self, rel, blocks):
        self.rel = {
            o: tuple(q if isinstance(q, State) else State(q) for q in row)
            for o, row in rel.items()
        }
        norm = []
        for members, polarity in blocks:
            if polarity not in ("angel", "demon"):
                raise BadPartition("polarity must be 'angel' or 'demon', got %r" % polarity)
            norm.append((frozenset(members), polarity))
        self.blocks = tuple(norm)


def polarized_score(prob, pr: PolarizedRelation, P) -> Fraction:
    """Score a property against a polarized relation.

    Angel blocks contribute the conditioned mass of their outcomes that can
    reach P; demon blocks contribute the conditioned mass of their outcomes
    whose whole row satisfies P.  The blocks must partition the outcome
    space exactly.
    """
    prob = _as_prob(prob)
    omega = set(prob.omega)
    seen = set()
    for members, _ in pr.blocks:
        if members & seen:
            raise BadPartition("blocks overlap on %r" % sorted(members & seen, key=repr))
        seen |= members
    if seen != omega:
        raise BadPartition("blocks do not cover the outcome space exactly")

    rows = {o: pr.rel.get(o, ()) for o in prob.omega}
    cset = {o for o in prob.omega if rows[o]}
    z = sum((prob.weights[o] for o in cset), Fraction(0))
    if z == 0:
        raise InconsistentSystem("polarized relation has no consistent mass")
    cond = {o: (prob.weights[o] / z if o in cset else Fraction(0)) for o in prob.omega}

    test, _ = _as_pred(P)
    score = Fraction(0)
    for members, polarity in pr.blocks:
        for o in members:
            row = rows[o]
            if polarity == "angel":
                if any(test(q) for q in row):
                    score += cond[o]
            else:
                if row and all(test(q) for q in row):
                    score += cond[o]
    return score


# --- JSON ------------------------------------------------------------------------


def _id_str(o) -> str:
    if isinstance(o, str):
        return o
    if isinstance(o, tuple):
        return "(%s)" % ",".join(_id_str(p) for p in o)
    return str(o)


def _string_ids(omega):
    """Map outcome ids to unique strings, mangling collisions."""
    out = {}
    used = set()
    for o in omega:
        s = base = _id_str(o)
        n = 2
        while s in used:
            s = "%s#%d" % (base, n)
            n += 1
        used.add(s)
        out[o] = s
    return out


def system_to_json(S: MixedSystem) -> dict:
    ids = _string_ids(S.omega)
    return {
        "domains": {v.domain.name: list(v.domain.values) for v in S.vars},
        "vars": [{"name": v.name, "domain": v.domain.name} for v in S.vars],
        "omega": [ids[o] for o in S.omega],
        "pi": {ids[o]: format_rat(S.pi[o]) for o in S.omega},
        "rel": [[ids[o], q.as_dict()] for o in S.omega for q in S.rel[o]],
    }


DOCUMENT_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


def document_error(kind, exc) -> MalformedSystem:
    """The MalformedSystem for a JSON document of the given kind that lacks
    a field or has one of the wrong shape; exc is one of DOCUMENT_ERRORS."""
    if isinstance(exc, KeyError):
        return MalformedSystem("bad %s document: missing field %s" % (kind, exc))
    return MalformedSystem("bad %s document: %s" % (kind, exc))


def vars_from_json(domains_doc, entries):
    """Vars from a {domain name: values} map and a list of
    {"name", "domain"} entries."""
    domains = {name: Domain(name, vals) for name, vals in domains_doc.items()}
    vars = []
    for entry in entries:
        dom = domains.get(entry["domain"])
        if dom is None:
            raise MalformedSystem("var %r references unknown domain %r"
                                  % (entry["name"], entry["domain"]))
        vars.append(Var(entry["name"], dom))
    return vars


def system_from_json(doc: dict) -> MixedSystem:
    try:
        vars = vars_from_json(doc["domains"], doc["vars"])
        omega = list(doc["omega"])
        pi = {o: rat(doc["pi"][o]) for o in omega}
        pairs = [(o, dict(binding)) for o, binding in doc.get("rel", [])]
    except DOCUMENT_ERRORS as exc:
        raise document_error("system", exc)
    return MixedSystem(DiscreteProb(omega, pi), vars, pairs)


def polarized_from_json(doc: dict):
    """Read (prob, PolarizedRelation) from a system document carrying a
    "blocks" list of {"outcomes": [...], "polarity": "angel"|"demon"}."""
    S = system_from_json(doc)
    try:
        blocks = [(set(b["outcomes"]), b["polarity"]) for b in doc["blocks"]]
    except DOCUMENT_ERRORS as exc:
        raise document_error("polarized system", exc)
    return S.prob, PolarizedRelation(S.rel, blocks)
