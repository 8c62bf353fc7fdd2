"""Fuzzing: generated programs round-trip through the printer, text built
from the language's tokens either parses or raises RbmxError, and the
documents of every JSON reader (system, polarized system, automaton, SPA,
PA, network and factor graph) either load or raise RbmxError."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbmx.automata import ma_from_json
from rbmx.bayes import bn_from_json
from rbmx.core import Domain, polarized_from_json, system_from_json
from rbmx.embeddings import pa_from_json, spa_from_json
from rbmx.factorgraph import fg_from_json
from rbmx.errors import RbmxError
from rbmx.rblang import elaborate, parse, print_program, run_program
from rbmx.rblang.syntax import (
    IF_FUNC,
    Const,
    DistDecl,
    Func,
    FuncDecl,
    Pair,
    Pre,
    Program,
    SEq,
    SInit,
    SObserve,
    SOn,
    SPar,
    SPrior,
    VarRef,
)

from .oracles import recheck_builds


BOOLS = (False, True)
NAMES = ("x", "y", "b")

# values of the generated domain "d": all integers or all symbols, since
# 1 == True would make a mixed domain repeat a value
VALUES = st.one_of(
    st.lists(st.integers(-30, 30), min_size=1, max_size=4, unique=True),
    st.lists(st.text("ab_ #|(0", max_size=3), min_size=1, max_size=4, unique=True),
)


def exprs(vals, depth):
    leaves = st.one_of(
        st.sampled_from(vals + BOOLS).map(Const),
        st.sampled_from(NAMES).map(VarRef),
        st.sampled_from(NAMES).map(Pre),
    )
    if depth == 0:
        return leaves
    sub = exprs(vals, depth - 1)
    return st.one_of(
        leaves,
        sub.map(lambda e: Func("f1", (e,))),
        st.tuples(sub, sub).map(lambda t: Func("f2", t)),
        st.tuples(sub, sub, sub).map(lambda t: Func(IF_FUNC, t)),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: Pair(tuple(xs))),
    )


def stmts(vals, depth, top):
    e = exprs(vals, 2)
    dvar = st.sampled_from(("x", "y"))
    leaves = st.one_of(
        st.tuples(e, e).map(lambda t: SEq(*t)),
        dvar.map(lambda v: SPrior(v, "coin", None)),
        st.tuples(dvar, e).map(lambda t: SPrior(t[0], "step", t[1])),
        dvar.map(lambda v: SPrior(v, "Uniform", VarRef("d"))),
        st.fractions(0, 1, max_denominator=60).map(
            lambda f: SPrior("b", "Bernoulli", Const(f))),
        st.sampled_from(NAMES).map(SObserve),
    )
    if depth == 0:
        return leaves
    sub = stmts(vals, depth - 1, False)
    options = [leaves, st.lists(sub, min_size=2, max_size=3).map(lambda xs: SPar(tuple(xs)))]
    if top:  # on-statements do not nest inside branches
        options.append(st.tuples(e, sub, sub).map(lambda t: SOn(*t)))
    return st.one_of(*options)


# the domain of each variable, and the input domains of each function
VAR_DOMAINS = {"x": "d", "y": "d", "b": "bool"}
FUNC_DOMAINS = {"f1": ("d",), "f2": ("d", "bool")}


def shown(e):
    """The domain e's values show, as parse reads it: a variable's, "d" for
    a function's, an if's first branch that shows one, and a pair's items'
    unless none shows one; None for a constant."""
    if isinstance(e, (VarRef, Pre)):
        return VAR_DOMAINS[e.name]
    if isinstance(e, Pair):
        ds = tuple(map(shown, e.items))
        return ds if any(ds) else None
    if isinstance(e, Func) and e.name == IF_FUNC:
        return shown(e.args[1]) or shown(e.args[2])
    return "d" if isinstance(e, Func) else None


def fit(e, dom, vals):
    """e with each constant that is not a value of dom, the domain it meets,
    swapped for one that is, so that parse accepts it.  Variables are left
    as they are, so x = b and f1(b) stay."""
    if isinstance(e, Const):
        values = {"d": vals, "bool": BOOLS}.get(dom)
        if values is None or any(type(v) is type(e.value) and v == e.value for v in values):
            return e
        return Const(values[len(repr(e.value)) % len(values)])
    if isinstance(e, Func) and e.name == IF_FUNC:
        c, a, b = e.args
        branches = shown(e) if dom is None else dom
        return Func(IF_FUNC, (fit(c, "bool", vals), fit(a, branches, vals), fit(b, branches, vals)))
    if isinstance(e, Func):
        return Func(e.name, tuple(fit(a, d, vals) for a, d in zip(e.args, FUNC_DOMAINS[e.name])))
    if isinstance(e, Pair):
        ds = dom if isinstance(dom, tuple) and len(dom) == len(e.items) else (None,) * len(e.items)
        return Pair(tuple(fit(x, d, vals) for x, d in zip(e.items, ds)))
    return e


def fit_stmt(s, vals):
    """s with the constants of its expressions fitted to their domains."""
    if isinstance(s, SEq):
        return SEq(fit(s.lhs, shown(s.rhs), vals), fit(s.rhs, shown(s.lhs), vals))
    if isinstance(s, SPrior) and s.dist == "step":
        return SPrior(s.var, s.dist, fit(s.arg, "bool", vals))
    if isinstance(s, SOn):
        return SOn(fit(s.guard, None, vals), fit_stmt(s.then, vals), fit_stmt(s.els, vals))
    if isinstance(s, SPar):
        return SPar(tuple(fit_stmt(x, vals) for x in s.items))
    return s


def weights(draw, vals):
    raw = draw(st.lists(st.integers(0, 5), min_size=len(vals), max_size=len(vals))
               .filter(lambda ws: sum(ws) > 0))
    return {v: Fraction(w, sum(raw)) for v, w in zip(vals, raw)}


@st.composite
def programs(draw):
    vals = tuple(draw(VALUES))
    out = st.sampled_from(vals)
    f1 = {v: draw(out) for v in vals}
    f2 = {(v, c): draw(out) for v in vals for c in BOOLS}
    body = [SInit(nm, draw(st.sampled_from(BOOLS if nm == "b" else vals))) for nm in NAMES]
    body += [fit_stmt(s, vals) for s in draw(st.lists(stmts(vals, 2, True), min_size=1, max_size=4))]
    return Program(
        {"d": Domain("d", vals), "bool": Domain("bool", BOOLS)},
        {"x": "d", "y": "d", "b": "bool"},
        {"f1": FuncDecl("f1", draw(st.sampled_from(("func", "op"))), ("d",), "d", f1),
         "f2": FuncDecl("f2", "func", ("d", "bool"), "d", f2)},
        {"coin": DistDecl("coin", None, "d", weights(draw, vals)),
         "step": DistDecl("step", "bool", "d", {c: weights(draw, vals) for c in BOOLS})},
        SPar(tuple(body)),
    )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(programs())
def test_generated_programs_round_trip(p):
    text = print_program(p)
    assert parse(text) == p, text


def test_generated_runs_build_what_the_checked_constructor_builds():
    # grafts, equations, free variables, pins and observation points are
    # built unchecked; recheck_builds rebuilds each with MixedSystem
    seen = Counter()
    graft = elaborate._graft

    def counted(base, K):
        seen["grafts"] += 1
        return graft(base, K)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(programs())
    def run(p):
        vals = p.domains["d"].values
        obs = [{"x": v, "y": v, "b": v == vals[0]} for v in vals[:2]]
        with pytest.MonkeyPatch.context() as m:
            built = recheck_builds(m)
            m.setattr(elaborate, "_graft", counted)
            try:
                run_program(p, obs=obs, steps=3)
                seen["runs"] += 1
            except RbmxError:
                seen["typed errors"] += 1
            seen["builds"] += len(built)

    run()
    assert all(seen[k] for k in ("grafts", "runs", "typed errors", "builds")), seen


HEADER = ("domain bit = { 0, 1 }\nvar x, y : bit\n"
          "func neg : bit -> bit { 0 -> 1, 1 -> 0 }\ndist c : bit { 0 : 1/2, 1 : 1/2 }\n")
TOKENS = (
    "domain var func op dist observe pre init on then else if T F x y bit neg c "
    "Bernoulli Uniform ( ) { } , : = ~ | || -> / 0 1 -1 2 0.5 1e-6 \"a\" # @ \" ²"
).split() + ["\n", "1/0", "1.2.3", "9" * 5000, "1e999999999", "2e-999999999"]
SOUP = st.lists(st.sampled_from(TOKENS), max_size=30).map(" ".join)
DEEP = st.tuples(
    st.sampled_from(("(", "{ ", "neg(", "if x then ", "on x then ", "( x, ")),
    st.integers(1, 3000),
).map(lambda t: t[0] * t[1])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.tuples(st.sampled_from(("", HEADER, HEADER + "|| x = ")), SOUP,
                 st.one_of(st.just(""), DEEP), SOUP).map("".join))
def test_token_soup_parses_or_raises_a_typed_error(text):
    try:
        p = parse(text)
    except RbmxError:
        return
    assert parse(print_program(p)) == p


# --- JSON loaders -----------------------------------------------------------------

HUGE = 10 ** 3000  # weights over it read fine; their sums pass the integer-text limit

# one weight as a document spells it: short and exact, 3001 digits long, out
# of bounds, or not a number at all
WEIGHTS = st.one_of(
    st.fractions(0, 1, max_denominator=12).map(lambda f: "%d/%d" % (f.numerator, f.denominator)),
    st.integers(1, 40).map(lambda c: "1/%d" % (HUGE + c)),
    st.sampled_from(["9" * 5000, "1/" + "7" * 4400, "1e999999", "-1/3", "0.5", "1/0", "x",
                     True, None, 0.25, 1, [], {}]),
)


@st.composite
def weight_lists(draw, n):
    """n weights: exact ones summing to 1, ones whose total is off by one
    unit of a short or a 3001-digit denominator, or n independent draws."""
    mode = draw(st.sampled_from(("exact", "off", "free")))
    if mode == "free":
        return [draw(WEIGHTS) for _ in range(n)]
    d = draw(st.one_of(st.integers(1, 12), st.integers(1, 40).map(lambda c: HUGE + c)))
    nums = [draw(st.integers(0, 3)) for _ in range(n - 1)]
    last = Fraction(d - sum(nums), d)
    if mode == "off":
        unit = d if d > HUGE else draw(st.sampled_from((d, HUGE + 1)))
        last += Fraction(draw(st.sampled_from((-1, 1))), unit)
    return ["%d/%d" % (a, d) for a in nums] + ["%d/%d" % (last.numerator, last.denominator)]


JUNK = st.sampled_from([None, 5, "x", [], {}, [[1]], [["q0"]], {"x": [0]}])


@st.composite
def mangled(draw, doc):
    """doc, or doc with one top-level field dropped or replaced by junk."""
    roll = draw(st.integers(0, 4))
    key = draw(st.sampled_from(sorted(doc)))
    if roll == 0:
        del doc[key]
    elif roll == 1:
        doc[key] = draw(JUNK)
    return doc


@st.composite
def system_docs(draw):
    n = draw(st.integers(1, 4))
    omega = ["o%d" % i for i in range(n)]
    rows = [draw(st.lists(st.sampled_from((0, 1, 2)), max_size=3)) for _ in omega]
    return draw(mangled({
        "domains": {"d": [0, 1, 2]},
        "vars": [{"name": "x", "domain": "d"}],
        "omega": omega,
        "pi": dict(zip(omega, draw(weight_lists(n)))),
        "rel": [[o, {"x": v}] for o, row in zip(omega, rows) for v in row],
    }))


@st.composite
def automaton_docs(draw, kind):
    states = ["q%d" % i for i in range(draw(st.integers(1, 3)))]
    transitions = []
    for _ in range(draw(st.integers(0, 3))):
        targets = draw(st.lists(st.tuples(st.sampled_from(("a", "b")), st.sampled_from(states)),
                                min_size=1, max_size=3, unique=True))
        ws = draw(weight_lists(len(targets)))
        t = {"from": draw(st.sampled_from(states))}
        if kind == "spa":
            t["action"] = draw(st.sampled_from(("a", "b")))
            t["dist"] = [[s, w] for (_, s), w in zip(targets, ws)]
        else:
            t["dist"] = [[a, s, w] for (a, s), w in zip(targets, ws)]
        transitions.append(t)
    return draw(mangled({"kind": kind, "alphabet": ["a", "b"], "states": states,
                         "initial": states[0], "transitions": transitions}))


@st.composite
def network_docs(draw):
    """Up to three kernels producing x or y from nothing, x, y or the
    undeclared z, each with a table of bindings of its inputs to system
    documents, mostly a well-formed one; a kernel entry may be mangled like
    the document."""
    kernels = []
    for i in range(draw(st.integers(0, 3))):
        ins, out = draw(st.sampled_from((((), "x"), (("x",), "y"), (("z",), "y"), (("y",), "y"))))
        good = {"domains": {"d": [0, 1, 2]}, "vars": [{"name": out, "domain": "d"}],
                "omega": ["o"], "pi": {"o": "1"}, "rel": [["o", {out: 0}]]}
        table = [[{n: draw(st.sampled_from((0, 1, 2, "a"))) for n in ins},
                  draw(st.one_of(st.just(good), system_docs()))]
                 for _ in range(draw(st.integers(0, 2)))]
        kernels.append(draw(mangled({"name": draw(st.sampled_from(("K%d" % i, "K0"))),
                                     "in": list(ins), "out": [out], "table": table})))
    return draw(mangled({
        "domains": {"d": [0, 1, 2]},
        "variables": [{"name": "x", "domain": "d"}, {"name": "y", "domain": "d"}],
        "sources": draw(st.lists(st.sampled_from(("x", "y", "z")), max_size=2)),
        "kernels": kernels,
    }))


def good_system(var):
    """A well-formed system document: two even outcomes, binding var to 0
    and to 1."""
    return {"domains": {"d": [0, 1, 2]}, "vars": [{"name": var, "domain": "d"}],
            "omega": ["o0", "o1"], "pi": {"o0": "1/2", "o1": "1/2"},
            "rel": [["o0", {var: 0}], ["o1", {var: 1}]]}


# a system document over x, well-formed or drawn by system_docs
SYSTEMS = st.one_of(st.just(good_system("x")), system_docs())


@st.composite
def polarized_docs(draw):
    """A system document with up to three blocks, each of outcome names or
    junk, tagged with a polarity or junk."""
    blocks = [{"outcomes": draw(st.one_of(st.lists(st.sampled_from(("o0", "o1", "o2", "o9")),
                                                    max_size=3), JUNK)),
               "polarity": draw(st.sampled_from(("angel", "demon", "saint", None, ["angel"])))}
              for _ in range(draw(st.integers(0, 3)))]
    return draw(mangled(dict(draw(SYSTEMS), blocks=blocks)))


# actions of a mixed automaton: labels, guard assignments, and guard
# assignments whose "state" is not an object of labels
ACTIONS = st.sampled_from(["a", "b", {"state": {"g": 0}}, {"state": [["g", 0]]},
                           {"state": {"g": [1]}}, {"state": {"g": {"h": 0}}}, {"state": 5},
                           {"state": "ab"}, {}])
# states of x, or junk; {} is a partial state
STATES = st.sampled_from(({"x": 0}, {"x": 1}, {"x": 2}, {}, {"x": [0]}, {"y": 0}, 3))


@st.composite
def ma_docs(draw):
    """A mixed automaton over x in d, with up to two transitions from a
    state of x on a label to a system document over x, mostly a
    well-formed one; a transition may be mangled like the document."""
    delta = [draw(mangled({"state": {"x": draw(st.sampled_from((0, 1, 2)))},
                           "action": draw(st.sampled_from(("a", "b"))),
                           "system": draw(st.one_of(st.just(good_system("x")), SYSTEMS))}))
             for _ in range(draw(st.integers(0, 2)))]
    return draw(mangled({
        "alphabet": draw(st.lists(ACTIONS, max_size=3)),
        "domains": {"d": [0, 1, 2]},
        "vars": [{"name": "x", "domain": "d"}],
        "initial": draw(STATES),
        "delta": delta,
    }))


@st.composite
def fg_docs(draw):
    """Up to three labelled system documents, the empty map among them."""
    systems = draw(st.dictionaries(st.sampled_from(("A", "B", "C")), SYSTEMS, max_size=3))
    return draw(mangled({"systems": systems}))


LOADERS = {"system": system_from_json, "polarized": polarized_from_json,
           "automaton": ma_from_json, "spa": spa_from_json, "pa": pa_from_json,
           "network": bn_from_json, "factor graph": fg_from_json}
DOCS = st.one_of(system_docs().map(lambda d: ("system", d)),
                 polarized_docs().map(lambda d: ("polarized", d)),
                 ma_docs().map(lambda d: ("automaton", d)),
                 automaton_docs("spa").map(lambda d: ("spa", d)),
                 automaton_docs("pa").map(lambda d: ("pa", d)),
                 network_docs().map(lambda d: ("network", d)),
                 fg_docs().map(lambda d: ("factor graph", d)))


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(DOCS)
def test_json_documents_load_or_raise_a_typed_error(case):
    kind, doc = case
    try:
        LOADERS[kind](doc)
    except RbmxError:
        pass
