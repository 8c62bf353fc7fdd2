"""Parser fuzzing: generated programs round-trip through the printer, and
text built from the language's tokens either parses or raises RbmxError."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rbmx.errors import RbmxError
from rbmx.rblang import parse, print_program
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
    body += draw(st.lists(stmts(vals, 2, True), min_size=1, max_size=4))
    return Program(
        {"d": vals, "bool": BOOLS},
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
