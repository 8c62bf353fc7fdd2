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

import functools
import itertools
import reprlib
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import lcm, prod
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    BadPartition,
    CapExceeded,
    DomainMismatch,
    InconsistentSystem,
    MalformedSystem,
    UnknownVariable,
    VariableSetMismatch,
)


MAX_EXPONENT = 100  # largest decimal exponent in numeric text, in size


def number_text_problem(text):
    """Why the numeric text cannot be read, or None: it has at most one
    point and an exponent of at most MAX_EXPONENT in size.  Checked before
    int() or Fraction() reads the text, which would otherwise build every
    digit of 10**exponent."""
    mantissa, _, exponent = text.lower().partition("e")
    if mantissa.count(".") > 1:
        return "malformed number %s" % reprlib.repr(text)
    if exponent:
        try:
            size = abs(int(exponent))
        except ValueError:
            return "malformed number %s" % reprlib.repr(text)
        if size > MAX_EXPONENT:
            return "exponent of %s exceeds %d" % (reprlib.repr(text), MAX_EXPONENT)
    return None


def rat(x) -> Fraction:
    """Coerce to an exact rational.  Accepts Fraction, int, and strings like
    "3/5", "7", or "0.25" (decimal strings convert exactly) whose numbers,
    on either side of a "/", pass number_text_problem.  Their length is not
    bounded here: exact products written by system_to_json grow long.
    Floats are refused: they would silently poison exact comparisons
    downstream.  So are booleans, which a JSON document spells true and
    false, not 1 and 0.

    The text format_rat writes, n or n/d in ASCII decimal digits, is read
    with int(), which needs no exponent check; every other text goes
    through number_text_problem and Fraction's own parser.  Both paths give
    the same value, or the same error: int() and Fraction raise alike on a
    zero denominator and on digits past CPython's limit for integer text.
    Text that Fraction's parser would take but no writer produces is
    refused first: non-ASCII characters (other scripts' digits), "_" digit
    separators, and surrounding whitespace.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise MalformedSystem(
            "refusing float %r in exact arithmetic; pass a string or Fraction" % x
        )
    if isinstance(x, bool):
        raise MalformedSystem("refusing boolean %r as a number" % x)
    ratio = None
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        if num.isdigit() and num.isascii() and (
                not slash or den.isdigit() and den.isascii()):
            ratio = (num, den) if slash else (num,)
        else:
            if not x.isascii() or "_" in x or x != x.strip():
                raise MalformedSystem("not a rational: %s (only ASCII text with no '_' and "
                                      "no surrounding space is read)" % reprlib.repr(x))
            for number in x.split("/"):
                problem = number_text_problem(number)
                if problem is not None:
                    raise MalformedSystem("not a rational: %s (%s)"
                                          % (reprlib.repr(x), problem))
    try:
        if ratio is not None:
            return Fraction(*map(int, ratio))
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedSystem("not a rational: %s (%s)" % (reprlib.repr(x), exc))


def format_rat(f: Fraction) -> str:
    """The exact text n/d of a weight.  Raises CapExceeded when n or d has
    more digits than CPython writes as text (sys.get_int_max_str_digits(),
    4300 by default): exact products of weights that each read fine can
    grow past it."""
    try:
        return "%d/%d" % (f.numerator, f.denominator)
    except ValueError:
        raise CapExceeded("a weight has more than %d digits, the limit for integer text"
                          % sys.get_int_max_str_digits()) from None


def describe_rat(f: Fraction) -> str:
    """f for an error message: its text when numerator and denominator are
    short, else its size.  A message never writes a long number in full:
    past CPython's limit on integer text that would raise instead."""
    bits = max(f.numerator.bit_length(), f.denominator.bit_length())
    if bits <= 128:
        return str(f)
    return "a fraction of about %d digits" % (bits * 0.30103 + 1)


def exact_weights(keys, weights) -> dict:
    """{k: rat(weights[k]) for k in keys}, the one check of an exact
    distribution: weights has exactly the keys, none negative, summing to
    exactly 1; else MalformedSystem, naming long numbers by describe_rat.
    One pass reads each weight's numerator and denominator once, and the
    total is checked in integers, each weight brought to the lcm of their
    denominators; the Fraction total is built only for the message."""
    w = {}
    parts = []
    for k in keys:
        if k not in weights:
            raise MalformedSystem("missing weight for outcome %r" % (k,))
        f = weights[k]
        if type(f) is not Fraction:
            f = rat(f)
        n, d = f.numerator, f.denominator
        if n < 0:
            raise MalformedSystem("negative weight %s for outcome %r" % (describe_rat(f), k))
        w[k] = f
        parts.append((n, d))
    if len(weights) != len(w):  # every key of w is a key of weights
        extra = next(k for k in weights if k not in w)
        raise MalformedSystem("weight for unknown outcome %r" % (extra,))
    scale = lcm(*[d for _, d in parts])
    total = sum([n * (scale // d) for n, d in parts])
    if total != scale:
        raise MalformedSystem("weights sum to %s, not 1" % describe_rat(Fraction(total, scale)))
    return w


class Masses:
    """A measure compiled to integers: ``mass`` maps each key of positive
    mass, in the measure's order, to that mass times ``scale``, the least
    common multiple of the positive masses' denominators, and ``total`` is
    the sum of those scaled masses.  Transport couples measures in this
    form, and sampling draws from it."""

    __slots__ = ("scale", "mass", "total")

    def __init__(self, mu: dict):
        positive = [(k, w) for k, w in mu.items() if w.numerator > 0]
        self.scale = lcm(*[w.denominator for _, w in positive])
        self.mass = {k: w.numerator * (self.scale // w.denominator) for k, w in positive}
        self.total = sum(self.mass.values())


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
        return domain_index(self, v) is not None

    def __eq__(self, other):
        """Same name and same typed values in order: Python's == takes
        True for 1, so each value's type is compared too, as domain_index
        does."""
        return (
            isinstance(other, Domain)
            and self.name == other.name
            and self.values == other.values
            and all(type(a) is type(b) for a, b in zip(self.values, other.values))
        )

    def __hash__(self):
        return hash((self.name, self.values))

    def __repr__(self):
        return "Domain(%r, %r)" % (self.name, list(self.values))


def domain_index(domain: Domain, v):
    """The position of v among domain's values, or None when v is not one of
    them.  Python's == and hash make True, 1 and 1.0 one dict key, so a hit
    counts only when the value found has v's own type: 1 is not a boolean
    value, and True is not a number.  A value that cannot be hashed, such
    as a list, is not one of them either."""
    try:
        i = domain.index.get(v)
    except TypeError:
        return None
    if i is None or type(domain.values[i]) is not type(v):
        return None
    return i


def domains_agree(d1: Domain, d2: Domain) -> bool:
    """Same carrier set of typed values (domain_index); names and declared
    order may differ, but False is not 0."""
    if d1 is d2:
        return True
    return len(d1.values) == len(d2.values) and all(
        domain_index(d2, v) is not None for v in d1.values)


class Var(NamedTuple):
    name: str
    domain: Domain


def norm_vars(vars) -> tuple:
    """Vars sorted by name, from Var entries, kept as they are, or (name,
    domain) pairs whose domain may be a plain value list (it is then named
    "D_<name>").  Raises MalformedSystem when a name is declared twice or
    one domain name is bound to two different value lists (typed values in
    order, as Domain's == compares them)."""
    out = []
    seen = set()
    domain_names = {}
    for v in vars:
        name, dom = v
        if not isinstance(dom, Domain):
            dom = Domain("D_%s" % name, dom)
        if name in seen:
            raise MalformedSystem("variable %r declared twice" % name)
        first = domain_names.setdefault(dom.name, dom)
        if first is not dom and first != dom:
            raise MalformedSystem("domain name %r bound to two different value lists"
                                  % dom.name)
        seen.add(name)
        out.append(v if type(v) is Var and v.domain is dom else Var(name, dom))
    out.sort(key=lambda v: v.name)
    return tuple(out)


def merge_vars(*groups) -> list:
    """The Vars of all groups, each name once, in first-seen order; a shared
    name keeps its first Var.  Raises DomainMismatch when a shared name
    carries different value sets."""
    merged = {}
    for group in groups:
        for v in group:
            first = merged.setdefault(v.name, v)
            if first is not v and not domains_agree(first.domain, v.domain):
                raise DomainMismatch("shared variable %r has different domains" % v.name)
    return list(merged.values())


def check_state(doms, q, what, *args):
    """Raise VariableSetMismatch unless the State q binds only variables of
    doms, {name: Domain}, each to a value of its domain as domain_index
    reads it: 1 is not a boolean value.  Partial states pass: program
    fragments pin only some variables.  The message names q by what % args,
    formatted only then."""
    for n, val in q.pairs:
        if n not in doms:
            raise VariableSetMismatch("%s binds unknown variable %r" % (what % args, n))
        if val not in doms[n]:
            raise VariableSetMismatch("%s value %r outside domain of %r"
                                      % (what % args, val, n))


def check_vars(vars, S, owner, where, *args):
    """Raise unless the system S binds exactly vars, sorted Vars, each over
    a domain with the same typed values: VariableSetMismatch for other
    names, DomainMismatch for another domain, naming S by where % args
    (formatted only then) and the holder of vars by owner.  Equal Vars, as
    a read document's systems share them, pass on one tuple comparison."""
    if S.vars == vars:
        return
    if S.var_names != tuple(v.name for v in vars):
        raise VariableSetMismatch("%s has variables %r, %s has %r" % (
            where % args, list(S.var_names), owner, [v.name for v in vars]))
    for v, w in zip(S.vars, vars):
        if not domains_agree(v.domain, w.domain):
            raise DomainMismatch("%s has %r over %s, %s has it over %s" % (
                where % args, v.name, reprlib.repr(list(v.domain.values)), owner,
                reprlib.repr(list(w.domain.values))))


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
        # names are distinct, so sorting the pairs never compares values
        object.__setattr__(self, "pairs", tuple(sorted(bindings.items())))

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
        return _state_of_pairs(tuple(kv for kv in self.pairs if kv[0] in keep))

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
        self.omega = omega
        self.weights = exact_weights(omega, weights)

    def support(self):
        return tuple(o for o in self.omega if self.weights[o] > 0)

    def __repr__(self):
        return "DiscreteProb(%s)" % ", ".join(
            "%r: %s" % (o, format_rat(self.weights[o])) for o in self.omega
        )


def _prob(omega, weights) -> DiscreteProb:
    """A DiscreteProb built unchecked, for a distribution that follows from
    checked ones: omega a tuple of distinct ids, weights {id: Fraction} over
    exactly those ids, none negative, summing to exactly 1."""
    p = object.__new__(DiscreteProb)
    p.omega = omega
    p.weights = weights
    return p


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
    lexicographically-first admissible state).  MixedSystem(...) validates
    all structural invariants and raises MalformedSystem on violation.

    The results of compose, marginal, compress and the rblang elaborator's
    grafts, equations, free variables and pins are built by _system instead,
    unchecked: their invariants follow from operands that were checked
    already, so checking them again would only repeat that work.
    """

    __slots__ = ("prob", "vars", "rel", "_cache")

    def __init__(self, prob, vars, rel):
        prob = _as_prob(prob)

        vars = norm_vars(vars)
        vnames = [v.name for v in vars]
        domains = [v.domain for v in vars]

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
            key = tuple(map(domain_index, domains, [v for _, v in qp]))
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

    def rowset(self, o) -> frozenset:
        sets = self._cache.get("rowsets")
        if sets is None:
            sets = {w: frozenset(r) for w, r in self.rel.items()}
            self._cache["rowsets"] = sets
        return sets[o]

    def __repr__(self):
        return "MixedSystem(|Ω|=%d, X=%s)" % (len(self.omega), list(self.var_names))


def _system(prob: DiscreteProb, vars: tuple, rows, dedupe=False) -> MixedSystem:
    """A MixedSystem built unchecked from parts that are valid by
    construction: prob a DiscreteProb, vars a tuple of Vars sorted by
    distinct names (no domain name bound to two value lists), and rows
    {outcome: States} over exactly prob.omega, each State binding exactly
    vars to values of their domains.  Each row is sorted by domain indices,
    as MixedSystem sorts it, after dropping repeated states when dedupe is
    set; without it the rows must hold none."""
    key = _row_key(vars)
    rel = {}
    for o in prob.omega:
        row = rows[o]
        if dedupe:
            row = dict.fromkeys(row)
        if len(row) > 1:
            row = sorted(row, key=key)
        rel[o] = tuple(row)
    S = object.__new__(MixedSystem)
    S.prob = prob
    S.vars = vars
    S.rel = rel
    S._cache = {}
    return S


def _row_key(vars):
    """The order MixedSystem keeps a row in, as a sort key of States that
    bind exactly vars, sorted by name: each value's index in its domain."""
    indexes = [v.domain.index for v in vars]
    return lambda q: tuple(map(dict.__getitem__, indexes, [v for _, v in q.pairs]))


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
    keep weight 0.  Raises InconsistentSystem when nothing is consistent.
    When the consistent weight is exactly 1, every inconsistent outcome
    already weighs 0, so the result is S.prob itself."""
    got = S._cache.get("conditioned")
    if got is None:
        flag, cset = consistency(S)
        if not flag:
            raise InconsistentSystem("system has no consistent mass")
        z = consistency_weight(S)
        if z == 1:
            got = S.prob
        else:
            got = _prob(
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
    "uniform": _uniform_resolver,
}


def _sampler_tables(S):
    """(scale, ids, cum): the positive-weight outcomes of conditioned(S) in
    omega order, and the running sums of their Masses over that scale."""
    tab = S._cache.get("sampler")
    if tab is None:
        m = Masses(conditioned(S).weights)
        tab = (m.scale, list(m.mass), list(itertools.accumulate(m.mass.values())))
        S._cache["sampler"] = tab
    return tab


def sample(S, rng, resolver="lex"):
    """Draw (outcome, state) from a system, or from a sequence of
    variable-disjoint systems as from their composition, without building it.

    The outcome is exact: one uniform integer below D, the product of the
    systems' common denominators of conditioned weights, which is the
    composition's common denominator because each system's conditioned
    weights sum to 1.  It is inverted system by system, in exact integers,
    through each cumulative table, exactly as the composition's table would
    invert it; outcome ids nest to the left like compose's, ((o1, o2), o3).
    The state is picked by the resolver ("lex", "uniform", or a callable
    (rng, row) -> state) from the joined row of the drawn outcomes, in
    MixedSystem row order.  For one system this is the draw from its own
    table and row.
    """
    systems = (S,) if isinstance(S, MixedSystem) else tuple(S)
    if len(systems) != 1:
        if not systems:
            raise MalformedSystem("nothing to sample from")
        names = [nm for T in systems for nm in T.var_names]
        if len(set(names)) != len(names):
            raise MalformedSystem("sampled systems share a variable")
    tables = [_sampler_tables(T) for T in systems]
    rest = prod(denom for denom, _, _ in tables)
    k = rng.randrange(rest)
    drawn = []
    for denom, ids, cum in tables:
        # a system's outcomes split [0, rest) into runs of width weight *
        # rest, in table order; the systems after it split each run in turn
        rest //= denom
        i = bisect_right(cum, k // rest)
        drawn.append(ids[i])
        if i:
            k -= cum[i - 1] * rest
            k //= cum[i] - cum[i - 1]
        else:
            k //= cum[0]
    o = drawn[0]
    if len(systems) == 1:
        row = systems[0].rel[o]
    else:
        for oi in drawn[1:]:
            o = (o, oi)
        row = _joined_row(systems, drawn)
    pick = RESOLVERS.get(resolver, resolver)
    if not callable(pick):
        raise ValueError("unknown resolver %r" % (resolver,))
    return o, pick(rng, row)


def _joined_row(systems, drawn):
    """The row of the drawn outcomes' composition: every join of one state
    per row, sorted as a MixedSystem sorts a row, by domain indices."""
    rows = [T.rel[o] for T, o in zip(systems, drawn)]
    joined = [_state_of_pairs(tuple(sorted(itertools.chain.from_iterable(
        q.pairs for q in combo), key=itemgetter(0))))
              for combo in itertools.product(*rows)]
    if len(joined) > 1:
        joined.sort(key=_row_key(sorted((v for T in systems for v in T.vars),
                                        key=itemgetter(0))))
    return tuple(joined)


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
    weights = {}
    rel = {}
    for row, members in classes.items():
        rep = members[0]
        weights[rep] = sum((S.pi[o] for o in members), Fraction(0))
        rel[rep] = row
    return _system(_prob(tuple(weights), weights), S.vars, rel)


def _signature(S: MixedSystem) -> Counter:
    return Counter(
        (S.pi[o], S.rowset(o)) for o in S.omega if S.pi[o] > 0
    )


def equivalent(S1: MixedSystem, S2: MixedSystem) -> bool:
    """True when the systems are the same up to renaming outcomes: same
    variables (domains compared as value sets), and the compressed systems
    have matching (weight, row) multisets over their positive-mass classes."""
    # vars are sorted by name, so equal name sets line the domains up
    if S1.var_names != S2.var_names or not all(
            domains_agree(v.domain, w.domain) for v, w in zip(S1.vars, S2.vars)):
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
    new_vars = tuple(v for v in S.vars if v.name in keep)
    rel = {o: [q.restrict(keep) for q in S.rel[o]] for o in S.omega}
    # restricting can make two states of a row equal
    return _system(S.prob, new_vars, rel, dedupe=True)


MAX_OUTCOMES = 1 << 20  # largest outcome space compose() and grafting build


def check_outcome_cap(sizes, what):
    """Raise CapExceeded when the product of the outcome-space sizes exceeds
    MAX_OUTCOMES; called before anything of that size is allocated."""
    total = prod(sizes)
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
    vars = norm_vars(merge_vars(*(S.vars for S in systems)))
    check_outcome_cap((len(S.omega) for S in systems), "composition")

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
            weights[o] = w
            rel[o] = row
    # each joined state binds every variable, and two of one row differ on
    # the operand state they came from, so the rows hold no repeats
    return _system(_prob(tuple(weights), weights), vars, rel)


def _extend(node, S):
    """The children of a product prefix (id, weight, row) under operand S.
    Pins, equations and free variables weigh exactly 1, and a product with
    1 is the other Fraction itself, so only other weights are multiplied."""
    oid, w, row = node
    pi, rel = S.pi, S.rel
    unit = w == 1
    for o in S.omega:
        joined = []
        for q1 in row:
            for q2 in rel[o]:
                j = state_join(q1, q2)
                if j is not None:
                    joined.append(j)
        wo = pi[o]
        yield (oid, o), (wo if unit else w if wo == 1 else w * wo), joined


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
    z = sum((prob.weights[o] for o in prob.omega if rows[o]), Fraction(0))
    if z == 0:
        raise InconsistentSystem("polarized relation has no consistent mass")

    # inconsistent outcomes have empty rows, so neither quantifier counts them
    test, _ = _as_pred(P)
    score = Fraction(0)
    for members, polarity in pr.blocks:
        quantifier = any if polarity == "angel" else all
        for o in members:
            row = rows[o]
            if row and quantifier(test(q) for q in row):
                score += prob.weights[o]
    return score / z


# --- JSON ------------------------------------------------------------------------
#
# The boundary: a JSON document enters only through a reader decorated with
# document_reader(kind), which reads it and builds its object under that one
# guard, so a bad field ends in MalformedSystem "bad <kind> document: ...",
# never in a raw error (a reader's own checks raise ValueError for the guard
# to type).  What a reader returns is trusted.  Writers mirror the readers.
#
# A document repeats its parts: a mixed automaton's targets each declare its
# domains again, and a few weight texts recur across all of its systems.
# Each top-level reader call therefore starts one table, and every reader of
# a nested document (a target, a kernel's system, a factor) is handed that
# same table as _table.  read_domain builds one Domain per distinct typed
# declaration in it and read_weight reads each distinct weight text once
# (hash-consing, per document).  Only successful reads are kept, so a bad
# part raises the same error wherever it occurs, and the table is dropped
# when the top-level call returns: nothing is kept across calls.
#
# Inside the boundary, what follows from checked systems is not checked
# again: compose, marginal and compress (and the elaborator's grafts,
# equations, free variables, pins and observation points) build their
# results with _system and _prob, unchecked.  Everything a caller hands in
# stays checked: MixedSystem(...), DiscreteProb(...), new_system,
# bayes.point_system, a program's prior tables, the embeddings' systems,
# every reader, and a kernel's inputs and systems and an automaton's states
# and targets, by check_state and check_vars.


def _id_str(o) -> str:
    if isinstance(o, str):
        return o
    if isinstance(o, tuple):
        return "(%s)" % ",".join(_id_str(p) for p in o)
    return str(o)


def unique_labels(items, label) -> dict:
    """Map each item to the string label(item); a label an earlier item
    already took gets "#2", "#3", ... appended."""
    out = {}
    used = set()
    for it in items:
        s = base = label(it)
        n = 2
        while s in used:
            s = "%s#%d" % (base, n)
            n += 1
        used.add(s)
        out[it] = s
    return out


DOCUMENT_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


def document_reader(kind):
    """Decorate read(doc, table), a reader of JSON documents of the given
    kind.  The reader it returns takes the document, and _table, internal:
    the table of the document that holds doc, when doc is part of one;
    otherwise a fresh table is made for this call.  Any of DOCUMENT_ERRORS
    raised while it reads and builds becomes MalformedSystem "bad <kind>
    document: ...", a KeyError naming the missing field."""
    def guard(read):
        @functools.wraps(read)
        def guarded(doc, *, _table=None):
            try:
                return read(doc, {} if _table is None else _table)
            except DOCUMENT_ERRORS as exc:
                what = "missing field %s" % exc if isinstance(exc, KeyError) else exc
                raise MalformedSystem("bad %s document: %s" % (kind, what)) from exc
        return guarded
    return guard


def read_domain(table, name, values) -> Domain:
    """Domain(name, values), built once per table for each name and typed
    value list, so [0, 1] and [false, true] stay two domains.  Only a built
    domain is kept: a bad declaration raises the same error each time."""
    values = tuple(values)
    key = (name, values, tuple(map(type, values)))
    try:
        dom = table.get(key)
    except TypeError:  # an unhashable value, which Domain refuses
        return Domain(name, values)
    if dom is None:
        dom = table[key] = Domain(name, values)
    return dom


def read_weight(table, x) -> Fraction:
    """rat(x), with each weight text read once per table.  Only texts are
    kept, since True, 1 and 1.0 would be one key, and only those that read:
    a bad text raises the same error each time."""
    if type(x) is not str:
        return rat(x)
    f = table.get(x)
    if f is None:
        f = table[x] = rat(x)
    return f


def json_label(field, x):
    """x, a label or state value read from the given field of a JSON
    document.  An array or an object cannot be one: it raises ValueError
    naming the field."""
    if isinstance(x, (list, dict)):
        raise ValueError("%s label %r is not a scalar" % (field, x))
    return x


def vars_to_json(vars, field="vars") -> dict:
    """The "domains" map of vars and their {"name", "domain"} entries under
    field: the two fields vars_from_json reads."""
    return {"domains": {v.domain.name: list(v.domain.values) for v in vars},
            field: [{"name": v.name, "domain": v.domain.name} for v in vars]}


def vars_from_json(table, doc, field="vars"):
    """Vars from the {domain name: values} map at doc["domains"] and the
    list of {"name", "domain"} entries at doc[field]; each domain comes from
    read_domain in table, the document's."""
    domains = {name: read_domain(table, name, vals) for name, vals in doc["domains"].items()}
    vars = []
    for entry in doc[field]:
        if not isinstance(entry["name"], str):
            raise ValueError("var name %r is not a string" % (entry["name"],))
        dom = domains.get(entry["domain"])
        if dom is None:
            raise ValueError("var %r references unknown domain %r"
                             % (entry["name"], entry["domain"]))
        vars.append(Var(entry["name"], dom))
    return vars


def system_to_json(S: MixedSystem) -> dict:
    ids = unique_labels(S.omega, _id_str)
    return {
        **vars_to_json(S.vars),
        "omega": [ids[o] for o in S.omega],
        "pi": {ids[o]: format_rat(S.pi[o]) for o in S.omega},
        "rel": [[ids[o], q.as_dict()] for o in S.omega for q in S.rel[o]],
    }


@document_reader("system")
def system_from_json(doc: dict, table: dict) -> MixedSystem:
    vars = vars_from_json(table, doc)
    omega = list(doc["omega"])
    pi = {o: read_weight(table, doc["pi"][o]) for o in omega}
    pairs = [(o, dict(binding)) for o, binding in doc.get("rel", [])]
    # a binding to an array or object fails to hash inside the constructor
    return MixedSystem(DiscreteProb(omega, pi), vars, pairs)


@document_reader("polarized system")
def polarized_from_json(doc: dict, table: dict):
    """Read (prob, PolarizedRelation) from a system document carrying a
    "blocks" list of {"outcomes": [...], "polarity": "angel"|"demon"}."""
    S = system_from_json(doc, _table=table)
    blocks = [(set(b["outcomes"]), b["polarity"]) for b in doc["blocks"]]
    return S.prob, PolarizedRelation(S.rel, blocks)
